package analysis

// Shard-by-shard evaluation: every population-wide analysis iterates
// the population in contiguous user-range shards through shard-sized
// workspace views, folding each shard's partial into the result.
// Whether a pass also bounds the heap is decided here and nowhere
// else:
//
//   - A bounded workspace (armed by SetStreamShard) cuts shards of the
//     armed size. Its views wire their own blocks from the store
//     through the exact same ensureBlock/DaySorted lazy paths as a
//     full workspace, offset by userBase, and StreamShards releases
//     each shard's mapped pages (snapshot.DropUserRange) as soon as its
//     callback returns, so a mapped store's peak RSS is set by the
//     shard size, not the population.
//   - Every other workspace is unbounded: it may keep the whole
//     population resident.
//     Its views are O(1) windows onto the parent's memoized blocks,
//     nothing is copied or released, and shards are four per worker
//     so per-user work keeps the whole-heap parallelism and the pool
//     can balance heavy-tailed users. Whole-heap evaluation is simply
//     this unbounded stream.
//
// Either way every per-user value a view serves is bit-identical to
// what the full workspace serves for the same user. The
// population-wide entry points — TailStats, Sweep, Assignment (via
// core.GroupFold's fold and core.StreamPlan's singleton pass), Score
// and the experiment runners above them — have exactly one code path,
// through StreamShards.
//
// Fold contract: every per-shard partial lands in a disjoint slice of
// a population-sized output (user-indexed results) or folds through a
// commutative, associative reduction (max for Sweep, the multiset
// accumulators of core.GroupFold), so neither the shard size nor the
// shard completion order — which the worker pool does not define —
// can change a result. The shard-size-invariance suites pin that.

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/par"
)

// SetStreamShard arms bounded-heap evaluation: population-wide
// analyses on this workspace will iterate the store in shards of at
// most n users and release each shard's mapped pages (n <= 0
// disarms). Only a mapped store has pages to release — a heap store
// (Generate) already holds everything, so arming one only cuts
// smaller shards. It must be called before analyses run (results are
// memoized under path-independent keys, so late arming only affects
// not-yet-computed artifacts).
func (w *Workspace) SetStreamShard(n int) {
	if n < 0 {
		n = 0
	}
	w.streamShard = n
}

// bounded reports whether population-wide analyses stream in bounded
// shards.
func (w *Workspace) bounded() bool { return w.streamShard > 0 }

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
// copied. An unbounded workspace cuts min(users, 4·workers) shards of
// near-equal size and releases nothing: several shards per worker let
// the pool's dynamic hand-out even out heavy-tailed users, where one
// shard per worker could leave a worker idle while another finishes
// the heavy half. Shards run concurrently: fn writes to shared state
// must target disjoint [lo, hi) slices or take their own locks. The
// lowest-indexed error wins, matching par.ForEachErr.
func (w *Workspace) StreamShards(workers int, fn func(view *Workspace, lo, hi int) error) error {
	bounded := w.bounded()
	nShards := min(w.users, 4*par.Workers(workers, w.users))
	cut := func(s int) int { return s * w.users / nShards }
	if bounded {
		shard := min(w.streamShard, w.users)
		nShards = (w.users + shard - 1) / shard
		cut = func(s int) int { return min(s*shard, w.users) }
	}
	return par.ForEachErr(nShards, workers, func(s int) error {
		lo, hi := cut(s), cut(s+1)
		if err := fn(w.ViewRange(lo, hi), lo, hi); err != nil {
			return err
		}
		if bounded {
			w.snap.DropUserRange(w.userBase+lo, w.userBase+hi)
		}
		return nil
	})
}

// groupFold returns the memoized heuristic-independent half of every
// configure over one feature's training week and grouping: the
// partition of the memoized TailStats pass's training p99s (exactly
// what core.Configure derives) and, when the partition has a
// multi-user group, one pass folding each shard's training
// distributions into the group accumulators. Percentile, MeanSigma
// and the frontier scorers all read the same fold, and it holds only
// accumulators, never a shard's columns, so the bounded shard bound
// still holds.
func (w *Workspace) groupFold(f features.Feature, trainWeek int, g core.Grouping) (*core.GroupFold, error) {
	key := fmt.Sprintf("fold/%d/%d/%s", int(f), trainWeek, g.Name())
	v, err := w.Memo(key, func() (any, error) {
		stat, err := w.TailStats(f, trainWeek, 0.99)
		if err != nil {
			return nil, err
		}
		fold, err := core.NewGroupFold(g, stat)
		if err != nil {
			return nil, err
		}
		if fold.Merged() {
			err = w.StreamShards(0, func(view *Workspace, lo, hi int) error {
				return fold.FoldShard(lo, view.Dists(f, trainWeek))
			})
			if err != nil {
				return nil, err
			}
		}
		return fold, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*core.GroupFold), nil
}

// configure derives one policy's threshold assignment: the policy's
// heuristic step over the memoized group fold, plus — only when the
// partition has a singleton group — one pass presenting each shard's
// training distributions so singletons take their own thresholds.
// Every heuristic folds, so every configure streams under the shard
// bound.
func (w *Workspace) configure(f features.Feature, trainWeek int, pol core.Policy, attack []float64) (*core.Assignment, error) {
	fold, err := w.groupFold(f, trainWeek, pol.Grouping)
	if err != nil {
		return nil, err
	}
	plan := fold.Plan(pol.Heuristic, attack)
	if fold.Singletons() {
		err = w.StreamShards(0, func(view *Workspace, lo, hi int) error {
			return plan.FoldShard(lo, view.Dists(f, trainWeek))
		})
		if err != nil {
			return nil, err
		}
	}
	return plan.Finish()
}

// Scoring is one job of a Score pass: a configured assignment and the
// shared per-window additive attack overlay it is scored under (nil
// for the benign week; otherwise one non-negative, finite value per
// window of the week, applied to every user).
type Scoring struct {
	Assignment *core.Assignment
	Overlay    []float64
}

// Score scores every job over one test week in a single shard pass,
// so k policies cost one pass instead of k. Every job reads its counts
// off the user's sorted test column with core.SortedPoint — one binary
// search for the windows above the threshold — plus, for a job with an
// attack overlay, a walk of the overlay's attacked windows (a > 0)
// alone: TP and the attacked windows' share of those above the
// threshold are counted there, and the rest is derived. Each distinct
// overlay's attacked windows are listed once per call, and jobs
// sharing an overlay slice share one per-user read of the user's
// values at those windows, taken straight from the matrix rows. A
// benign job (nil overlay) walks nothing. out[i] is job i's result,
// bit-identical to core.EvaluatePolicy with EvalInput.Assignment set
// and every user's attack = the job's overlay; each operating point
// lands in its own population-indexed slot. Every job is checked
// before the pass: its assignment must cover the population and its
// overlay, when present, must cover the week with finite, non-negative
// values. workers < 1 means one worker per CPU. Panics on an invalid
// feature or week, like Raw.
func (w *Workspace) Score(f features.Feature, week int, jobs []Scoring, workers int) ([]*core.EvalResult, error) {
	w.blockIndex(f, week) // panics on an invalid feature or week
	out := make([]*core.EvalResult, len(jobs))
	// overlays lists each distinct overlay (nil, the benign week, among
	// them) with its attacked windows and their values; group[i] is job
	// i's entry.
	type attacked struct {
		overlay []float64
		windows []int
		values  []float64
	}
	var overlays []attacked
	group := make([]int, len(jobs))
	most := 0
	for i, job := range jobs {
		if job.Assignment == nil {
			return nil, fmt.Errorf("analysis: scoring job %d needs a configured assignment", i)
		}
		if n := len(job.Assignment.Thresholds); n != w.users {
			return nil, fmt.Errorf("analysis: scoring job %d: assignment covers %d users, population has %d", i, n, w.users)
		}
		if err := w.checkOverlay(job.Overlay); err != nil {
			return nil, fmt.Errorf("analysis: scoring job %d: %w", i, err)
		}
		out[i] = &core.EvalResult{Assignment: job.Assignment, Points: make([]core.OperatingPoint, w.users)}
		group[i] = slices.IndexFunc(overlays, func(a attacked) bool {
			// A valid overlay is nil or covers the week, so the first
			// element's address identifies the slice.
			return len(a.overlay) == len(job.Overlay) && (a.overlay == nil || &a.overlay[0] == &job.Overlay[0])
		})
		if group[i] < 0 {
			a := attacked{overlay: job.Overlay}
			for b, v := range job.Overlay {
				if v > 0 {
					a.windows = append(a.windows, b)
					a.values = append(a.values, v)
				}
			}
			group[i] = len(overlays)
			overlays = append(overlays, a)
			most = max(most, len(a.windows))
		}
	}
	err := w.StreamShards(workers, func(view *Workspace, lo, hi int) error {
		sorted := view.Sorted(f, week)
		// benign[k] and hit[k] are the user's value g and g+a at the
		// k-th attacked window of the overlay being scored.
		benign, hit := make([]float64, most), make([]float64, most)
		for u, m := range view.matrices {
			wlo, _ := m.WeekRange(week)
			for g, a := range overlays {
				for k, b := range a.windows {
					v := m.Rows[wlo+b][f]
					benign[k], hit[k] = v, v+a.values[k]
				}
				n := len(a.windows)
				for i, job := range jobs {
					if group[i] != g {
						continue
					}
					thr := job.Assignment.Thresholds[lo+u]
					tp, fp := 0, 0
					for k := range n {
						if hit[k] > thr {
							tp++
						}
						if benign[k] > thr {
							fp++
						}
					}
					out[i].Points[lo+u] = core.SortedPoint(lo+u, sorted[u], thr, n, tp, fp)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// checkOverlay validates an additive attack overlay against the week:
// nil (no attack), or one finite, non-negative value per window.
func (w *Workspace) checkOverlay(overlay []float64) error {
	if overlay == nil {
		return nil
	}
	if len(overlay) != w.binsPerWeek {
		return fmt.Errorf("overlay covers %d windows, week has %d", len(overlay), w.binsPerWeek)
	}
	for b, a := range overlay {
		if a < 0 || math.IsNaN(a) || math.IsInf(a, 0) {
			return fmt.Errorf("overlay value %g at window %d is not finite and non-negative", a, b)
		}
	}
	return nil
}

// EvaluateSharded scores one pre-configured assignment over one test
// week: a one-job Score. overlay, when non-nil, is the shared
// per-window additive attack applied to every user.
func (w *Workspace) EvaluateSharded(f features.Feature, testWeek int, asn *core.Assignment, overlay []float64, workers int) (*core.EvalResult, error) {
	res, err := w.Score(f, testWeek, []Scoring{{Assignment: asn, Overlay: overlay}}, workers)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}
