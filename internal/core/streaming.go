package core

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// A configure runs in two halves. The GroupFold depends only on the
// grouping: it partitions the population and folds every multi-user
// group's members into a stats.Compressed accumulator. The StreamPlan
// is the per-heuristic step: it reads the fold's accumulators for the
// merged groups and takes each singleton group's threshold straight
// from the member's own distribution. Every heuristic configured over
// the same (feature, week, grouping) can read one fold — the analysis
// workspace memoizes it — while NewStreamPlan runs both halves in one
// pass. Either way the protocol is
//
//	// fan FoldShard(lo, dists) over shards/workers, each user exactly once
//	asn, _ := plan.Finish()
//
// and the resulting Assignment is bit-identical to applying the
// heuristic to each group's members' samples copied into one slice and
// sorted: a singleton's member distribution is exactly that copy, and
// the accumulator's quantiles, moments and threshold frontier
// reproduce the sorted copy operand for operand. The fold is
// associative and commutative — the accumulator state depends only on
// the multiset of samples — so neither the shard size nor worker
// scheduling can change the result.

// GroupFold is the heuristic-independent half of a configure: the
// grouping's partition and one accumulator per multi-user group. It
// holds accumulators only, never a presented distribution. Once every
// user has been folded — which only a partition with a Merged group
// needs — the fold is read-only, and any number of plans may read it
// concurrently.
type GroupFold struct {
	groups [][]int
	// groupOf maps each user to its group index.
	groupOf []int
	// acc holds one merged-distribution accumulator per multi-user
	// group (nil for singletons), guarded by the matching mu entry.
	acc []*stats.Compressed
	mu  []sync.Mutex
	// release drops the accumulators' fold buffers once the fold is
	// complete.
	release sync.Once
	// merged and singles report whether the partition has a
	// multi-user group and a singleton group.
	merged, singles bool
	seen            claims
}

// NewGroupFold partitions the population with the grouping over the
// per-user tail statistic (stat[u] must be user u's training
// 0.99-quantile, exactly what Configure computes internally) and
// prepares the per-group accumulators.
func NewGroupFold(grouping Grouping, stat []float64) (*GroupFold, error) {
	n := len(stat)
	if n == 0 {
		return nil, fmt.Errorf("core: empty population")
	}
	groups, err := grouping.Groups(stat)
	if err != nil {
		return nil, fmt.Errorf("core: grouping %s: %w", grouping.Name(), err)
	}
	if err := ValidatePartition(groups, n); err != nil {
		return nil, err
	}
	f := &GroupFold{
		groups:  groups,
		groupOf: make([]int, n),
		acc:     make([]*stats.Compressed, len(groups)),
		mu:      make([]sync.Mutex, len(groups)),
		seen:    make(claims, n),
	}
	for g, grp := range groups {
		for _, u := range grp {
			f.groupOf[u] = g
		}
		if len(grp) > 1 {
			f.acc[g] = &stats.Compressed{}
			f.merged = true
		} else {
			f.singles = true
		}
	}
	return f, nil
}

// Merged reports whether the partition has a multi-user group: only
// then does the fold need its users presented through FoldShard.
func (f *GroupFold) Merged() bool { return f.merged }

// Singletons reports whether the partition has a singleton group:
// only then does a plan over the fold need its users presented
// through the plan's FoldShard.
func (f *GroupFold) Singletons() bool { return f.singles }

// FoldShard presents the training distributions of the contiguous
// users [lo, lo+len(dists)), typically one StreamShards shard, and
// folds the members of multi-user groups. Each user must be folded
// exactly once: a second fold of any user is an error naming it.
// Concurrent calls over disjoint ranges are safe. The distributions
// are not retained, so shard-backed callers may release the backing
// memory as soon as the call returns.
func (f *GroupFold) FoldShard(lo int, dists []*stats.Empirical) error {
	if err := f.seen.claim(lo, dists); err != nil {
		return err
	}
	f.add(lo, dists)
	return nil
}

// foldLocals recycles the shard-local accumulators of add. It is a
// leaky free list rather than a sync.Pool, so whether a fold finds a
// warm accumulator depends neither on garbage collection nor, under
// the race detector, on Put's random drops; it keeps at most one
// accumulator per CPU.
var foldLocals = make(chan *stats.Compressed, runtime.GOMAXPROCS(0))

func getLocal() *stats.Compressed {
	select {
	case c := <-foldLocals:
		return c
	default:
		return new(stats.Compressed)
	}
}

func putLocal(c *stats.Compressed) {
	select {
	case foldLocals <- c:
	default:
	}
}

// add folds the multi-user group members among users
// [lo, lo+len(dists)) into their group accumulators. The shard's
// members of one group are folded together, by one AddEmpiricals. A
// bucket holding the whole group folds straight into the group's
// accumulator; otherwise other shards fold the same group, so the
// bucket is folded into a pooled shard-local accumulator first and only
// the Merge runs under the group's lock — concurrent shards of one
// group fold in parallel.
func (f *GroupFold) add(lo int, dists []*stats.Empirical) {
	if !f.merged {
		return
	}
	var multi []int // members of multi-user groups, bucketed by group below
	for i := range dists {
		if f.acc[f.groupOf[lo+i]] != nil {
			multi = append(multi, lo+i)
		}
	}
	slices.SortStableFunc(multi, func(a, b int) int { return cmp.Compare(f.groupOf[a], f.groupOf[b]) })
	bucket := make([]*stats.Empirical, 0, len(multi))
	for s := 0; s < len(multi); {
		g := f.groupOf[multi[s]]
		bucket = bucket[:0]
		for ; s < len(multi) && f.groupOf[multi[s]] == g; s++ {
			bucket = append(bucket, dists[multi[s]-lo])
		}
		if len(bucket) == len(f.groups[g]) {
			f.mu[g].Lock()
			f.acc[g].AddEmpiricals(bucket)
			f.mu[g].Unlock()
			continue
		}
		local := getLocal()
		local.Reset()
		local.AddEmpiricals(bucket)
		f.mu[g].Lock()
		f.acc[g].Merge(local)
		f.mu[g].Unlock()
		putLocal(local)
	}
}

// complete reports a user the fold still needs: none when no group is
// merged. The first call that finds the fold complete releases its
// accumulators' fold buffers (stats.Compressed.Release), which a
// memoized fold would otherwise keep for as long as its workspace.
func (f *GroupFold) complete() error {
	if !f.merged {
		return nil
	}
	if err := f.seen.complete(); err != nil {
		return err
	}
	f.release.Do(func() {
		for _, acc := range f.acc {
			if acc != nil {
				acc.Release()
			}
		}
	})
	return nil
}

// StreamPlan is the per-heuristic half of a configure: it derives a
// policy's Assignment from a GroupFold and from the singleton groups'
// own distributions, presented a shard at a time (in any order, from
// any goroutine); Configure is its one-shard case.
type StreamPlan struct {
	fold *GroupFold
	// own is set on a NewStreamPlan plan, which folds the groups
	// itself: its FoldShard feeds the fold too and must see every
	// user. A plan from GroupFold.Plan reads a fold completed by its
	// own pass and needs only the singletons' users.
	own       bool
	seen      claims
	heuristic Heuristic
	attack    []float64
	// err is the heuristic error of the lowest-indexed singleton group
	// errGroup that failed, kept for Finish under errMu.
	errMu    sync.Mutex
	errGroup int
	err      error

	thresholds []float64
	groupThr   []float64
}

// NewStreamPlan prepares a one-pass configure: a fresh GroupFold for
// the policy's grouping (see NewGroupFold for stat) whose accumulators
// the plan's own FoldShard fills.
func NewStreamPlan(policy Policy, stat []float64, attack []float64) (*StreamPlan, error) {
	fold, err := NewGroupFold(policy.Grouping, stat)
	if err != nil {
		return nil, err
	}
	p := fold.Plan(policy.Heuristic, attack)
	p.own = true
	return p, nil
}

// Plan starts the heuristic's step over the fold. The fold must be
// complete by Finish; the plan's FoldShard is needed only when the
// partition has Singletons.
func (f *GroupFold) Plan(h Heuristic, attack []float64) *StreamPlan {
	n := len(f.groupOf)
	return &StreamPlan{
		fold:       f,
		seen:       make(claims, n),
		heuristic:  h,
		attack:     attack,
		thresholds: make([]float64, n),
		groupThr:   make([]float64, len(f.groups)),
	}
}

// FoldShard presents the training distributions of the contiguous
// users [lo, lo+len(dists)), under GroupFold.FoldShard's contract
// (each user exactly once, concurrent disjoint calls safe, nothing
// retained). A NewStreamPlan plan folds the shard's multi-user group
// members into its fold. Singleton groups take their threshold
// straight from the member's distribution; a heuristic error there is
// kept for Finish, which reports the lowest-indexed failing group
// whatever the fold order.
func (p *StreamPlan) FoldShard(lo int, dists []*stats.Empirical) error {
	if err := p.seen.claim(lo, dists); err != nil {
		return err
	}
	if p.own {
		p.fold.add(lo, dists)
	}
	if !p.fold.singles {
		return nil
	}
	for i, d := range dists {
		u := lo + i
		g := p.fold.groupOf[u]
		if p.fold.acc[g] != nil {
			continue
		}
		t, err := p.heuristic.Threshold(d, p.attack)
		if err != nil {
			p.errMu.Lock()
			if p.err == nil || g < p.errGroup {
				p.errGroup, p.err = g, err
			}
			p.errMu.Unlock()
		}
		p.thresholds[u], p.groupThr[g] = t, t
	}
	return nil
}

// Finish derives the multi-user group thresholds from the folded
// accumulators and assembles the Assignment. Every user the plan and
// its fold need must have been folded. A heuristic error is reported
// for the lowest-indexed group it fails on.
func (p *StreamPlan) Finish() (*Assignment, error) {
	if p.own || p.fold.singles {
		if err := p.seen.complete(); err != nil {
			return nil, err
		}
	}
	if !p.own {
		if err := p.fold.complete(); err != nil {
			return nil, err
		}
	}
	for g, grp := range p.fold.groups {
		if len(grp) == 1 {
			if p.err != nil && g == p.errGroup {
				return nil, fmt.Errorf("core: heuristic %s on group %d: %w", p.heuristic.Name(), g, p.err)
			}
			continue
		}
		t, err := p.mergedThreshold(p.fold.acc[g])
		if err != nil {
			return nil, fmt.Errorf("core: heuristic %s on group %d: %w", p.heuristic.Name(), g, err)
		}
		p.groupThr[g] = t
		for _, u := range grp {
			p.thresholds[u] = t
		}
	}
	return &Assignment{
		Thresholds:     p.thresholds,
		Groups:         p.fold.groups,
		GroupThreshold: p.groupThr,
	}, nil
}

// mergedThreshold reproduces Heuristic.Threshold over a group's
// merged distribution from its compressed accumulator.
func (p *StreamPlan) mergedThreshold(acc *stats.Compressed) (float64, error) {
	switch h := p.heuristic.(type) {
	case Percentile:
		return acc.Quantile(h.Q)
	case MeanSigma:
		return h.threshold(acc.Mean(), acc.StdDev()), nil
	case FrontierScorer:
		if err := h.validateScorer(); err != nil {
			return 0, err
		}
		if len(p.attack) == 0 {
			return 0, fmt.Errorf("core: objective-optimizing heuristic requires attack magnitudes")
		}
		fr, err := stats.NewFrontierCompressed(acc, p.attack)
		if err != nil {
			return 0, err
		}
		return fr.Maximize(h.Score, h.bound), nil
	}
	return 0, fmt.Errorf("core: heuristic %s has no fold over merged groups", p.heuristic.Name())
}

// claims records which users a pass has been presented, so that each
// is presented exactly once.
type claims []atomic.Bool

// claim checks the shard of users [lo, lo+len(dists)) and claims
// them, or claims none: a user already claimed is an error naming it.
func (c claims) claim(lo int, dists []*stats.Empirical) error {
	hi := lo + len(dists)
	if lo < 0 || hi > len(c) {
		return fmt.Errorf("core: users [%d, %d) outside population of %d", lo, hi, len(c))
	}
	for i, d := range dists {
		if d == nil || d.N() == 0 {
			return fmt.Errorf("core: user %d has no training data", lo+i)
		}
	}
	for u := lo; u < hi; u++ {
		if !c[u].CompareAndSwap(false, true) {
			// Release this call's claims so Finish reports them
			// missing rather than folded.
			for v := lo; v < u; v++ {
				c[v].Store(false)
			}
			return fmt.Errorf("core: user %d folded twice", u)
		}
	}
	return nil
}

// complete reports the lowest-indexed user not yet claimed.
func (c claims) complete() error {
	got, missing := 0, -1
	for u := range c {
		if c[u].Load() {
			got++
		} else if missing < 0 {
			missing = u
		}
	}
	if got != len(c) {
		return fmt.Errorf("core: streaming configure folded %d of %d users (user %d missing)", got, len(c), missing)
	}
	return nil
}
