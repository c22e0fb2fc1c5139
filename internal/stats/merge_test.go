package stats

import "sort"

// The merged-copy reference: the samples of many distributions copied
// into one slice and sorted. Production code derives group thresholds
// from a Compressed accumulator instead; these are the oracle its
// quantiles, moments and frontiers are pinned against.

// Merge returns a new empirical distribution over the union of the
// samples of e and others: the homogeneous policy's "single global
// distribution" (paper §4) as a sorted copy.
func (e *Empirical) Merge(others ...*Empirical) *Empirical {
	total := len(e.sorted)
	for _, o := range others {
		total += len(o.sorted)
	}
	merged := make([]float64, 0, total)
	merged = append(merged, e.sorted...)
	for _, o := range others {
		merged = append(merged, o.sorted...)
	}
	sort.Float64s(merged)
	return &Empirical{sorted: merged}
}

// MergeEmpiricals builds a single distribution from many, skipping
// nils and empties. Returns ErrNoSamples if nothing remains.
func MergeEmpiricals(dists []*Empirical) (*Empirical, error) {
	var total int
	for _, d := range dists {
		if d != nil {
			total += len(d.sorted)
		}
	}
	if total == 0 {
		return nil, ErrNoSamples
	}
	merged := make([]float64, 0, total)
	for _, d := range dists {
		if d != nil {
			merged = append(merged, d.sorted...)
		}
	}
	sort.Float64s(merged)
	return &Empirical{sorted: merged}, nil
}
