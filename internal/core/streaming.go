package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// StreamPlan is the streaming counterpart of Configure: it derives
// a policy's Assignment from per-user training distributions that are
// presented one at a time (in any order, from any goroutine) instead
// of all resident at once. The protocol is
//
//	plan, _ := NewStreamPlan(policy, stat, attack)
//	// fan FoldUser(u, dist) over shards/workers, each user exactly once
//	asn, _ := plan.Finish()
//
// and the resulting Assignment is bit-identical to Configure over the
// same distributions: singleton groups take their threshold straight
// from the member's own distribution (whose samples are exactly the
// merged copy Configure would build), and multi-user groups fold
// members into a stats.Compressed accumulator whose quantiles and
// threshold frontier reproduce the merged sorted column operand for
// operand. The fold is
// associative and commutative — the accumulator state depends only on
// the multiset of samples — so worker scheduling cannot change the
// result.
//
// Multi-user groups support Percentile and FrontierScorer heuristics
// (everything the experiment runners use); moment-based heuristics
// like MeanSigma would need a float summation order the streaming fold
// cannot reproduce bit for bit, so NewStreamPlan rejects them up front
// when the partition has any multi-user group.
type StreamPlan struct {
	policy Policy
	attack []float64
	groups [][]int
	// groupOf maps each user to its group index.
	groupOf []int
	// acc holds one merged-distribution accumulator per multi-user
	// group (nil for singletons), guarded by the matching mu entry.
	acc []*stats.Compressed
	mu  []sync.Mutex

	thresholds []float64
	groupThr   []float64
	folded     atomic.Int64
}

// NewStreamPlan partitions the population with the policy's grouping
// over the per-user tail statistic (stat[u] must be user u's training
// 0.99-quantile, exactly what Configure computes internally) and
// prepares per-group accumulators for the fold.
func NewStreamPlan(policy Policy, stat []float64, attack []float64) (*StreamPlan, error) {
	n := len(stat)
	if n == 0 {
		return nil, fmt.Errorf("core: empty population")
	}
	groups, err := policy.Grouping.Groups(stat)
	if err != nil {
		return nil, fmt.Errorf("core: grouping %s: %w", policy.Grouping.Name(), err)
	}
	if err := ValidatePartition(groups, n); err != nil {
		return nil, err
	}
	p := &StreamPlan{
		policy:     policy,
		attack:     attack,
		groups:     groups,
		groupOf:    make([]int, n),
		acc:        make([]*stats.Compressed, len(groups)),
		mu:         make([]sync.Mutex, len(groups)),
		thresholds: make([]float64, n),
		groupThr:   make([]float64, len(groups)),
	}
	for g, grp := range groups {
		for _, u := range grp {
			p.groupOf[u] = g
		}
		if len(grp) > 1 {
			if !streamableHeuristic(policy.Heuristic) {
				return nil, fmt.Errorf("core: streaming configure: heuristic %s unsupported on multi-user groups",
					policy.Heuristic.Name())
			}
			p.acc[g] = &stats.Compressed{}
		}
	}
	return p, nil
}

// streamableHeuristic reports whether a heuristic's group threshold
// can be derived from the compressed merged multiset.
func streamableHeuristic(h Heuristic) bool {
	switch h.(type) {
	case Percentile, FrontierScorer:
		return true
	}
	return false
}

// FoldUser presents user u's training distribution. Each user must be
// folded exactly once; concurrent calls for distinct users are safe.
// The distribution is not retained — its samples are either consumed
// into a threshold immediately (singleton groups) or merged into the
// group accumulator — so shard-backed callers may release the backing
// memory as soon as the call returns.
func (p *StreamPlan) FoldUser(u int, dist *stats.Empirical) error {
	if u < 0 || u >= len(p.groupOf) {
		return fmt.Errorf("core: user %d outside population of %d", u, len(p.groupOf))
	}
	if dist == nil || dist.N() == 0 {
		return fmt.Errorf("core: user %d has no training data", u)
	}
	g := p.groupOf[u]
	if len(p.groups[g]) == 1 {
		// A singleton group's merged distribution is a copy of the
		// member's own, so Threshold on the member's distribution is
		// the exact Configure result without the copy.
		t, err := p.policy.Heuristic.Threshold(dist, p.attack)
		if err != nil {
			return fmt.Errorf("core: heuristic %s on group %d: %w", p.policy.Heuristic.Name(), g, err)
		}
		p.thresholds[u] = t
		p.groupThr[g] = t
	} else {
		p.mu[g].Lock()
		p.acc[g].AddEmpirical(dist)
		p.mu[g].Unlock()
	}
	p.folded.Add(1)
	return nil
}

// Finish derives the multi-user group thresholds from the folded
// accumulators and assembles the Assignment.
func (p *StreamPlan) Finish() (*Assignment, error) {
	n := len(p.groupOf)
	if got := p.folded.Load(); got != int64(n) {
		return nil, fmt.Errorf("core: streaming configure folded %d of %d users", got, n)
	}
	for g, grp := range p.groups {
		if len(grp) == 1 {
			continue
		}
		t, err := p.mergedThreshold(g)
		if err != nil {
			return nil, fmt.Errorf("core: heuristic %s on group %d: %w", p.policy.Heuristic.Name(), g, err)
		}
		p.groupThr[g] = t
		for _, u := range grp {
			p.thresholds[u] = t
		}
	}
	return &Assignment{
		Thresholds:     p.thresholds,
		Groups:         p.groups,
		GroupThreshold: p.groupThr,
	}, nil
}

// mergedThreshold reproduces Heuristic.Threshold over the group's
// merged distribution from the compressed accumulator.
func (p *StreamPlan) mergedThreshold(g int) (float64, error) {
	switch h := p.policy.Heuristic.(type) {
	case Percentile:
		return p.acc[g].Quantile(h.Q)
	case FrontierScorer:
		if err := h.validateScorer(); err != nil {
			return 0, err
		}
		if len(p.attack) == 0 {
			return 0, fmt.Errorf("core: objective-optimizing heuristic requires attack magnitudes")
		}
		fr, err := stats.NewFrontierCompressed(p.acc[g], p.attack)
		if err != nil {
			return 0, err
		}
		return fr.Maximize(h.Score), nil
	}
	return 0, fmt.Errorf("core: streaming configure: heuristic %s unsupported on multi-user groups",
		p.policy.Heuristic.Name())
}
