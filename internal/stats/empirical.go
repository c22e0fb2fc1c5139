// Package stats implements the statistical machinery the reproduction
// needs: empirical distributions with quantile/tail queries, run-length
// accumulators, the threshold frontier, boxplot summaries, detection
// rates, utility and correlation.
//
// The paper's entire methodology is built on empirical per-user feature
// distributions P(g_i^j): thresholds are percentiles of those
// distributions, false-positive rates are upper-tail probabilities, and
// the resourceful attacker inverts them. Empirical is therefore the
// central type of this package.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrNoSamples is returned by constructors and queries that require at
// least one sample.
var ErrNoSamples = errors.New("stats: empirical distribution has no samples")

// Empirical is an immutable empirical distribution over float64
// samples. Construct with NewEmpirical; all queries are O(log n) or
// O(1). The zero value is empty and returns ErrNoSamples from
// fallible queries.
type Empirical struct {
	sorted []float64
}

// NewEmpirical builds an empirical distribution from the given
// samples. The input slice is copied and may be reused by the caller.
// NaN samples are rejected.
func NewEmpirical(samples []float64) (*Empirical, error) {
	if len(samples) == 0 {
		return nil, ErrNoSamples
	}
	cp := make([]float64, len(samples))
	for i, s := range samples {
		if math.IsNaN(s) {
			return nil, fmt.Errorf("stats: sample %d is NaN", i)
		}
		cp[i] = s
	}
	sort.Float64s(cp)
	return &Empirical{sorted: cp}, nil
}

// NewEmpiricalFromSorted adopts an already-sorted sample slice without
// copying it — the zero-alloc construction path the analysis
// workspace uses to share one sorted column across many views. The
// caller transfers ownership: the slice must never be modified after
// the call (the distribution would silently corrupt). The input is
// verified to be sorted and NaN-free in one allocation-free pass.
func NewEmpiricalFromSorted(sorted []float64) (*Empirical, error) {
	e := &Empirical{}
	if err := e.AdoptSorted(sorted); err != nil {
		return nil, err
	}
	return e, nil
}

// AdoptSorted initializes e in place to adopt an already-sorted slice,
// under the same contract (and the same validation pass) as
// NewEmpiricalFromSorted. It exists so bulk constructors can carve
// thousands of distributions out of one []Empirical slab instead of
// allocating each behind a pointer; e must not be shared with other
// goroutines until the call returns.
func (e *Empirical) AdoptSorted(sorted []float64) error {
	if len(sorted) == 0 {
		return ErrNoSamples
	}
	if err := checkSorted(sorted); err != nil {
		return err
	}
	e.sorted = sorted
	return nil
}

// AdoptSealed initializes e in place to adopt a snapshot store's
// column without AdoptSorted's validation pass. It is only for columns
// whose sorted, NaN-free, non-empty contract was proven where their
// bytes were made — the snapshot part gate scans every sorted column
// and day view before a part is adopted or merged, and the store's
// checksum binds the bytes it saw; snapshot.Fill runs the same scan
// over a heap store — so rescanning them on every read would only
// fault their pages in again. Every other column, and
// anything received from a peer, goes through AdoptSorted.
func (e *Empirical) AdoptSealed(sorted []float64) { e.sorted = sorted }

// UnsortedAt returns the index of the first sample of s that is NaN or
// smaller than its predecessor, or -1 when s is sorted ascending and
// NaN-free. It makes one comparison per sample: !(s[i] >= s[i-1])
// holds exactly when s[i] is NaN or out of order, because s[i-1]
// already passed the same test (and s[0] the NaN test).
func UnsortedAt(s []float64) int {
	if len(s) == 0 {
		return -1
	}
	if math.IsNaN(s[0]) {
		return 0
	}
	for i := 1; i < len(s); i++ {
		if !(s[i] >= s[i-1]) {
			return i
		}
	}
	return -1
}

// checkSorted is AdoptSorted's sorted, NaN-free contract, diagnosed at
// UnsortedAt's index.
func checkSorted(s []float64) error {
	i := UnsortedAt(s)
	switch {
	case i < 0:
		return nil
	case math.IsNaN(s[i]):
		return fmt.Errorf("stats: sample %d is NaN", i)
	default:
		return fmt.Errorf("stats: samples not sorted at index %d (%g < %g)", i, s[i], s[i-1])
	}
}

// MustEmpirical is NewEmpirical that panics on error; intended for
// tests and generators that control their inputs.
func MustEmpirical(samples []float64) *Empirical {
	e, err := NewEmpirical(samples)
	if err != nil {
		panic(err)
	}
	return e
}

// N returns the number of samples.
func (e *Empirical) N() int { return len(e.sorted) }

// Min returns the smallest sample, or 0 for an empty distribution.
func (e *Empirical) Min() float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	return e.sorted[0]
}

// Max returns the largest sample, or 0 for an empty distribution.
func (e *Empirical) Max() float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	return e.sorted[len(e.sorted)-1]
}

// Mean returns the sample mean, or 0 for an empty distribution.
func (e *Empirical) Mean() float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	var sum float64
	for _, v := range e.sorted {
		sum += v
	}
	return sum / float64(len(e.sorted))
}

// StdDev returns the sample standard deviation (denominator n-1), or
// 0 when fewer than two samples exist.
func (e *Empirical) StdDev() float64 {
	n := len(e.sorted)
	if n < 2 {
		return 0
	}
	mean := e.Mean()
	var ss float64
	for _, v := range e.sorted {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// Quantile returns the q-quantile (0 <= q <= 1) using linear
// interpolation between order statistics (Hyndman-Fan type 7, the
// default of R, NumPy and Excel). Quantile(0.99) is the paper's "99th
// percentile" threshold heuristic.
func (e *Empirical) Quantile(q float64) (float64, error) {
	return QuantileSorted(e.sorted, q)
}

// QuantileSorted is the zero-alloc quantile fast path: it computes
// the Hyndman-Fan type 7 q-quantile directly on an already-sorted
// slice, with no Empirical wrapper and no copy. Empirical.Quantile
// delegates here; the analysis workspace calls it on shared sorted
// columns.
func QuantileSorted(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, ErrNoSamples
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("stats: quantile %g outside [0, 1]", q)
	}
	if n == 1 {
		return sorted[0], nil
	}
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	if lo >= n-1 {
		return sorted[n-1], nil
	}
	frac := h - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo]), nil
}

// MustQuantile is Quantile that panics on error.
func (e *Empirical) MustQuantile(q float64) float64 {
	v, err := e.Quantile(q)
	if err != nil {
		panic(err)
	}
	return v
}

// CDF returns the empirical P(X <= x): the fraction of samples that
// are <= x. Returns 0 for an empty distribution.
func (e *Empirical) CDF(x float64) float64 {
	n := len(e.sorted)
	if n == 0 {
		return 0
	}
	// index of first sample > x
	idx := sort.Search(n, func(i int) bool { return e.sorted[i] > x })
	return float64(idx) / float64(n)
}

// TailProb returns the empirical P(X > x), the probability mass
// strictly above x. This is exactly the false-positive rate of a
// threshold detector with threshold x evaluated on these samples.
func (e *Empirical) TailProb(x float64) float64 {
	return 1 - e.CDF(x)
}

// InverseCDF returns the smallest sample value v such that
// P(X <= v) >= p. Unlike Quantile it never interpolates, so the
// result is always an observed sample. The resourceful attacker uses
// this to compute the largest additive traffic that keeps the evasion
// probability at its target.
func (e *Empirical) InverseCDF(p float64) (float64, error) {
	n := len(e.sorted)
	if n == 0 {
		return 0, ErrNoSamples
	}
	if p < 0 || p > 1 || math.IsNaN(p) {
		return 0, fmt.Errorf("stats: probability %g outside [0, 1]", p)
	}
	if p == 0 {
		return e.sorted[0], nil
	}
	k := int(math.Ceil(p*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return e.sorted[k], nil
}

// At returns the i-th order statistic (the i-th smallest sample),
// allocation-free. It panics if i is out of range, like a slice
// index.
func (e *Empirical) At(i int) float64 { return e.sorted[i] }
