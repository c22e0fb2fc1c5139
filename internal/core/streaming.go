package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// StreamPlan derives a policy's Assignment from per-user training
// distributions that are presented a shard at a time (in any order,
// from any goroutine) instead of all resident at once; Configure is
// its one-shard case. The protocol is
//
//	plan, _ := NewStreamPlan(policy, stat, attack)
//	// fan FoldShard(lo, dists) over shards/workers, each user exactly once
//	asn, _ := plan.Finish()
//
// and the resulting Assignment is bit-identical to applying the
// heuristic to each group's members' samples copied into one slice and
// sorted: singleton groups take their threshold straight from the
// member's own distribution (whose samples are exactly that copy), and
// multi-user groups fold members into a stats.Compressed accumulator
// whose quantiles, moments and threshold frontier reproduce the sorted
// copy operand for operand. The fold is associative and commutative —
// the accumulator state depends only on the multiset of samples — so
// neither the shard size nor worker scheduling can change the result.
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
	// err is the heuristic error of the lowest-indexed singleton group
	// errGroup that failed, kept for Finish under errMu.
	errMu    sync.Mutex
	errGroup int
	err      error

	thresholds []float64
	groupThr   []float64
	// folded[u] is set by the one fold that may present user u.
	folded []atomic.Bool
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
		folded:     make([]atomic.Bool, n),
	}
	for g, grp := range groups {
		for _, u := range grp {
			p.groupOf[u] = g
		}
		if len(grp) > 1 {
			p.acc[g] = &stats.Compressed{}
		}
	}
	return p, nil
}

// FoldUser presents user u's training distribution: FoldShard over a
// one-user shard.
func (p *StreamPlan) FoldUser(u int, dist *stats.Empirical) error {
	return p.FoldShard(u, []*stats.Empirical{dist})
}

// FoldShard presents the training distributions of the contiguous
// users [lo, lo+len(dists)), typically one StreamShards shard. Each
// user must be folded exactly once: a second fold of any user is an
// error naming it. Concurrent calls over disjoint ranges are safe.
// Singleton groups take their threshold straight from the member's
// distribution; a heuristic error there is kept for Finish, which
// reports the lowest-indexed failing group whatever the fold order.
// The shard's members of each multi-user group are
// folded into the group accumulator together, by one
// stats.Compressed.AddEmpiricals under the group's lock, so the lock
// is taken once per (shard, group) instead of once per user. The
// distributions are not retained, so shard-backed callers may release
// the backing memory as soon as the call returns.
func (p *StreamPlan) FoldShard(lo int, dists []*stats.Empirical) error {
	hi := lo + len(dists)
	if lo < 0 || hi > len(p.groupOf) {
		return fmt.Errorf("core: users [%d, %d) outside population of %d", lo, hi, len(p.groupOf))
	}
	for i, d := range dists {
		if d == nil || d.N() == 0 {
			return fmt.Errorf("core: user %d has no training data", lo+i)
		}
	}
	for u := lo; u < hi; u++ {
		if !p.folded[u].CompareAndSwap(false, true) {
			// Release this call's claims so Finish reports them
			// missing rather than folded.
			for v := lo; v < u; v++ {
				p.folded[v].Store(false)
			}
			return fmt.Errorf("core: user %d folded twice", u)
		}
	}
	var multi []int // members of multi-user groups, bucketed by group below
	for u := lo; u < hi; u++ {
		g := p.groupOf[u]
		if p.acc[g] != nil {
			multi = append(multi, u)
			continue
		}
		t, err := p.policy.Heuristic.Threshold(dists[u-lo], p.attack)
		if err != nil {
			p.errMu.Lock()
			if p.err == nil || g < p.errGroup {
				p.errGroup, p.err = g, err
			}
			p.errMu.Unlock()
		}
		p.thresholds[u], p.groupThr[g] = t, t
	}
	slices.SortStableFunc(multi, func(a, b int) int { return cmp.Compare(p.groupOf[a], p.groupOf[b]) })
	bucket := make([]*stats.Empirical, 0, len(multi))
	for s := 0; s < len(multi); {
		g := p.groupOf[multi[s]]
		bucket = bucket[:0]
		for ; s < len(multi) && p.groupOf[multi[s]] == g; s++ {
			bucket = append(bucket, dists[multi[s]-lo])
		}
		p.mu[g].Lock()
		p.acc[g].AddEmpiricals(bucket)
		p.mu[g].Unlock()
	}
	return nil
}

// Finish derives the multi-user group thresholds from the folded
// accumulators and assembles the Assignment. Every user must have been
// folded. A heuristic error is reported for the lowest-indexed group
// it fails on.
func (p *StreamPlan) Finish() (*Assignment, error) {
	n, got, missing := len(p.groupOf), 0, -1
	for u := range p.folded {
		if p.folded[u].Load() {
			got++
		} else if missing < 0 {
			missing = u
		}
	}
	if got != n {
		return nil, fmt.Errorf("core: streaming configure folded %d of %d users (user %d missing)", got, n, missing)
	}
	for g, grp := range p.groups {
		if len(grp) == 1 {
			if p.err != nil && g == p.errGroup {
				return nil, fmt.Errorf("core: heuristic %s on group %d: %w", p.policy.Heuristic.Name(), g, p.err)
			}
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
	case MeanSigma:
		return h.threshold(p.acc[g].Mean(), p.acc[g].StdDev()), nil
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
	return 0, fmt.Errorf("core: heuristic %s has no fold over merged groups", p.policy.Heuristic.Name())
}
