package analysis

// Shard-by-shard evaluation: every population-wide analysis iterates
// the population in contiguous user-range shards through shard-sized
// workspace views, folding each shard's partial into the result.
// Whether a pass also bounds the heap is decided here and nowhere
// else:
//
//   - A bounded workspace (snapshot-backed and armed by SetStreamShard)
//     cuts shards of the armed size. Its views wire their own blocks
//     from the mapping through the exact same ensureBlock/DaySorted
//     lazy paths as a full workspace, offset by userBase, and
//     StreamShards releases each shard's mapped pages
//     (snapshot.DropUserRange) as soon as its callback returns, so peak
//     RSS is set by the shard size, not the population.
//   - Every other workspace (in-memory, or mapped but unarmed) is
//     unbounded: it already holds, or may keep, the whole population.
//     Its views are O(1) windows onto the parent's memoized blocks,
//     nothing is copied or released, and shards are one per worker so
//     per-user work keeps the whole-heap parallelism. Whole-heap
//     evaluation is simply this one-shard-per-worker stream.
//
// Either way every per-user value a view serves is bit-identical to
// what the full workspace serves for the same user. The
// population-wide entry points — TailStats, Sweep, Assignment (via
// core.StreamPlan's fold), EvaluateSharded and the experiment runners
// above them — have exactly one code path, through StreamShards.
//
// Fold contract: every per-shard partial lands in a disjoint slice of
// a population-sized output (user-indexed results) or folds through a
// commutative, associative reduction (max for Sweep, the multiset
// accumulators of core.StreamPlan), so neither the shard size nor the
// shard completion order — which the worker pool does not define —
// can change a result. The shard-size-invariance suites pin that.

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/par"
)

// SetStreamShard arms bounded-heap evaluation: population-wide
// analyses on this workspace will iterate the snapshot in shards of at
// most n users and release each shard's pages (n <= 0 disarms). It
// only takes effect on snapshot-backed workspaces — an in-memory
// workspace already holds everything, so there is nothing to bound —
// and must be called before analyses run (results are memoized under
// path-independent keys, so late arming only affects not-yet-computed
// artifacts).
func (w *Workspace) SetStreamShard(n int) {
	if n < 0 {
		n = 0
	}
	w.streamShard = n
}

// bounded reports whether population-wide analyses stream in bounded
// shards: only an armed, snapshot-backed workspace can hand its pages
// back.
func (w *Workspace) bounded() bool { return w.snap != nil && w.streamShard > 0 }

// ViewRange returns a shard-sized view covering local users [lo, hi)
// — a real Workspace whose user u is the parent's user lo+u. A view of
// a bounded workspace shares the parent's mapping and matrix headers
// but builds its own columnar blocks and memo, so they are garbage the
// moment the view is dropped. A view of an unbounded workspace is a
// window onto the parent's memoized columns: its sorted columns,
// distributions, raw and day columns are the parent's slices for
// [lo, hi), shared rather than copied. Views must not outlive the
// parent's Close.
func (w *Workspace) ViewRange(lo, hi int) *Workspace {
	if lo < 0 || hi <= lo || hi > w.users {
		panic(fmt.Sprintf("analysis: view range [%d, %d) outside population [0, %d)", lo, hi, w.users))
	}
	v := &Workspace{
		matrices:    w.matrices[lo:hi:hi],
		users:       hi - lo,
		weeks:       w.weeks,
		binsPerWeek: w.binsPerWeek,
		binWidth:    w.binWidth,
	}
	if w.bounded() {
		nBlocks := w.weeks * features.NumFeatures
		v.blocks, v.blockOnce = make([]*block, nBlocks), make([]sync.Once, nBlocks)
		v.snap, v.userBase = w.snap, w.userBase+lo
	} else {
		v.parent, v.parentLo = w, lo
	}
	return v
}

// StreamShards runs fn over the population in contiguous user-range
// shards, each through a fresh ViewRange view, fanned over the worker
// pool (workers < 1 = one per CPU). A bounded workspace cuts shards of
// its armed size and, after fn returns for a shard, releases the
// shard's mapped pages from the resident set; fn must not retain views
// or any slice obtained from one past its return, except data it
// copied. An unbounded workspace cuts one shard per worker and
// releases nothing. Shards run concurrently: fn writes to shared state
// must target disjoint [lo, hi) slices or take their own locks. The
// lowest-indexed error wins, matching par.ForEachErr.
func (w *Workspace) StreamShards(workers int, fn func(view *Workspace, lo, hi int) error) error {
	bounded := w.bounded()
	shard := w.streamShard
	if !bounded {
		n := par.Workers(workers, w.users)
		shard = (w.users + n - 1) / n
	}
	shard = min(shard, w.users)
	nShards := (w.users + shard - 1) / shard
	return par.ForEachErr(nShards, workers, func(s int) error {
		lo := s * shard
		hi := min(lo+shard, w.users)
		if err := fn(w.ViewRange(lo, hi), lo, hi); err != nil {
			return err
		}
		if bounded {
			w.snap.DropUserRange(w.userBase+lo, w.userBase+hi)
		}
		return nil
	})
}

// configure derives one policy's threshold assignment with
// core.StreamPlan's fold: every user's grouping statistic (the
// training p99, exactly what core.Configure derives) is the memoized
// TailStats pass that Fig 1, Fig 2 and every other policy share; one
// further pass folds each user's training distribution into the plan.
// The one heuristic with no fold over merged groups (core.MeanSigma
// under a merging policy) is the only population-wide configure left:
// it falls back to core.Configure over every training distribution,
// which also reproduces any genuine error.
func (w *Workspace) configure(f features.Feature, trainWeek int, pol core.Policy, attack []float64) (*core.Assignment, error) {
	stat, err := w.TailStats(f, trainWeek, 0.99)
	if err != nil {
		return nil, err
	}
	plan, err := core.NewStreamPlan(pol, stat, attack)
	if err != nil {
		return core.Configure(w.Dists(f, trainWeek), pol, attack)
	}
	err = w.StreamShards(0, func(view *Workspace, lo, hi int) error {
		for u, d := range view.Dists(f, trainWeek) {
			if err := plan.FoldUser(lo+u, d); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return plan.Finish()
}

// EvaluateSharded scores a pre-configured assignment over one test
// week shard by shard: core.EvaluatePolicy with EvalInput.Assignment
// set, without a population-sized test matrix. overlay, when non-nil,
// is the shared per-window additive attack applied to every user (the
// shape the sweep runners use; every user has the same bin count).
// Results are bit-identical to core.EvaluatePolicy: each user's
// operating point is core.ScorePoint over the same test column,
// threshold and overlay, written to its own population-indexed slot.
// Each shard extracts its users' test columns one at a time into a
// single binsPerWeek scratch column instead of building a raw block.
// workers < 1 means one worker per CPU. Panics on an invalid feature
// or week, like Raw.
func (w *Workspace) EvaluateSharded(f features.Feature, testWeek int, asn *core.Assignment, overlay []float64, workers int) (*core.EvalResult, error) {
	if asn == nil {
		return nil, fmt.Errorf("analysis: EvaluateSharded needs a configured assignment")
	}
	if len(asn.Thresholds) != w.users {
		return nil, fmt.Errorf("analysis: assignment covers %d users, population has %d", len(asn.Thresholds), w.users)
	}
	w.blockIndex(f, testWeek) // panics on an invalid feature or week
	res := &core.EvalResult{Assignment: asn, Points: make([]core.OperatingPoint, w.users)}
	err := w.StreamShards(workers, func(view *Workspace, lo, hi int) error {
		col := make([]float64, w.binsPerWeek)
		for u, m := range view.matrices {
			wlo, whi := m.WeekRange(testWeek)
			m.ColumnInto(col, f, wlo, whi)
			pt, err := core.ScorePoint(lo+u, col, overlay, asn.Thresholds[lo+u])
			if err != nil {
				return err
			}
			res.Points[lo+u] = pt
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
