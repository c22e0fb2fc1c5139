// Package analysis is the columnar read path of the experiment
// engine: a Workspace computed once per enterprise that every runner
// (Fig 1 … Fig 5b, Table 2, Table 3) shares.
//
// The paper's evaluation re-reads the same feature matrices over and
// over — per-user, per-week quantiles for Fig 1, train/test series
// for every policy of Fig 3/4/5, attack sweeps for each figure. A
// workspace reads them from one store of per-user records in
// internal/snapshot's layout — rows, sorted week columns, sorted day
// views — backed by a mapped file (Load) or a heap slab (Generate).
// Either way the records come from the one record producer, so the
// sorted views are derived once, by one function. Over the store the
// workspace serves columnar views and memoized derived artifacts:
//
//   - Raw(f, w): per-user time-ordered columns of one feature-week,
//     extracted on first use, shared by every evaluation loop;
//   - Sorted(f, w) / Dists(f, w): the same columns pre-sorted, as
//     zero-copy views of the records with stats.Empirical views
//     adopting them, so quantile/CDF queries hit the stats fast path
//     with no per-call allocation;
//   - TailStats / Sweep / Assignment / Memo: memoized quantile
//     vectors, attack sweeps, threshold configurations and arbitrary
//     derived artifacts keyed by their parameters — the
//     population-wide ones computed shard by shard through
//     StreamShards (streaming.go), the single path whether or not the
//     pass bounds the heap;
//   - DaySorted: the pre-sorted per-day views that turn the Fig 4a
//     attack sweep into binary-search counting;
//   - Score: one shard pass scoring several configured policies (and
//     attack overlays) over a test week, the scoring loop of Fig 3,
//     Table 3 and Fig 5.
//
// Everything returned by a Workspace is shared and must be treated
// as read-only; all methods are safe for concurrent use.
package analysis

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/par"
	"repro/internal/snapshot"
	"repro/internal/stats"
)

// Workspace holds the per-enterprise columnar cache over one store of
// records: a mapped file (Load, MaterializeSharded, LoadOrMaterialize)
// or a heap slab (Generate). The zero value is not usable.
type Workspace struct {
	matrices    []*features.Matrix
	users       int
	weeks       int
	binsPerWeek int
	binWidth    time.Duration

	// blocks[w*NumFeatures+f] is the lazily built columnar view of
	// one (feature, week); blockOnce guards each build, which wires
	// the block's sorted columns from the store on first use. Nil on a
	// view of an unbounded workspace, which reads the parent's.
	blocks    []*block
	blockOnce []sync.Once

	mu   sync.Mutex
	memo map[string]*memoCell // created on first Memo

	// snap is the backing store: ensureBlock adopts its sorted columns
	// and DaySorted its day views. Nil on a view of an unbounded
	// workspace, which reads the parent's, and after Close.
	snap *snapshot.Snapshot

	// userBase offsets this workspace's local user indices into snap:
	// a bounded ViewRange shard over users [lo, hi) has userBase == lo
	// and users == hi-lo, so local user u is snapshot record
	// userBase+u.
	// Zero for full workspaces.
	userBase int

	// streamShard > 0 bounds the shards of the population-wide
	// analyses (TailStats, Sweep, Assignment, EvaluateSharded and the
	// runners above them) to this many users and releases each shard's
	// mapped pages after use; see streaming.go.
	streamShard int

	// parent is set on a ViewRange view of an unbounded workspace: the
	// view's local user u is parent's user parentLo+u, and every column
	// it serves is a window onto parent's memoized ones.
	parent   *Workspace
	parentLo int
}

// block is the columnar view of one (feature, week): every user's
// sorted column, which points straight into the store's records, and
// an Empirical adopting it (carved from one slab, so building a block
// costs O(1) allocations instead of O(users)).
type block struct {
	sorted [][]float64
	dists  []*stats.Empirical
	emp    []stats.Empirical

	// raw holds the time-ordered columns, nil until Raw fires rawOnce:
	// rows interleave the six features, so a raw column is the one
	// view a record cannot serve without copying.
	raw     [][]float64
	rawOnce sync.Once
}

type memoCell struct {
	once sync.Once
	val  any
	err  error
}

// Matrices returns the per-user matrices the workspace was built
// over, in user order. Shared, read-only.
func (w *Workspace) Matrices() []*features.Matrix { return w.matrices }

// Users returns the population size.
func (w *Workspace) Users() int { return w.users }

// BinsPerWeek returns the number of aggregation windows per week.
func (w *Workspace) BinsPerWeek() int { return w.binsPerWeek }

// BinWidth returns the aggregation window width.
func (w *Workspace) BinWidth() time.Duration { return w.binWidth }

func (w *Workspace) blockIndex(f features.Feature, week int) int {
	if !f.Valid() {
		panic(fmt.Sprintf("analysis: invalid feature %d", int(f)))
	}
	if week < 0 || week >= w.weeks {
		panic(fmt.Sprintf("analysis: week %d outside [0, %d)", week, w.weeks))
	}
	return week*features.NumFeatures + int(f)
}

// ensureBlock builds the columnar view of one (feature, week) on
// first use, fanning the per-user work over all CPUs. On a full
// workspace and a bounded view alike it only wires the sorted columns
// and the distributions adopting them as zero-copy views of the
// store's records, without a validation pass (the part gate, or
// snapshot.Fill's same scan, ran it where the records were made), so a
// pass touches only the pages it reads; the raw columns wait for Raw,
// so a pass that reads only sorted data copies nothing. A view of an
// unbounded workspace has no blocks: its column accessors window the
// parent's instead.
func (w *Workspace) ensureBlock(f features.Feature, week int) *block {
	idx := w.blockIndex(f, week)
	w.blockOnce[idx].Do(func() {
		b := &block{
			sorted: make([][]float64, w.users),
			dists:  make([]*stats.Empirical, w.users),
			emp:    make([]stats.Empirical, w.users),
		}
		par.ForEach(w.users, 0, func(u int) {
			s := w.snap.SortedColumn(w.userBase+u, week, int(f))
			b.emp[u].AdoptSealed(s)
			b.sorted[u] = s
			b.dists[u] = &b.emp[u]
		})
		w.blocks[idx] = b
	})
	return w.blocks[idx]
}

// Raw returns every user's time-ordered column of one feature-week.
// The first call copies the columns out of the records' rows into one
// users×binsPerWeek slab; nothing else the workspace serves needs
// them. A view of an unbounded workspace windows the parent's. The
// slices are shared: callers must not modify them.
func (w *Workspace) Raw(f features.Feature, week int) [][]float64 {
	if w.parent != nil {
		return window(w.parent.Raw(f, week), w.parentLo, w.users)
	}
	b := w.ensureBlock(f, week)
	b.rawOnce.Do(func() {
		bpw := w.binsPerWeek
		raw := make([][]float64, w.users)
		buf := make([]float64, w.users*bpw)
		par.ForEach(w.users, 0, func(u int) {
			m := w.matrices[u]
			lo, hi := m.WeekRange(week)
			col := buf[u*bpw : (u+1)*bpw : (u+1)*bpw]
			m.ColumnInto(col, f, lo, hi)
			raw[u] = col
		})
		b.raw = raw
	})
	return b.raw
}

// Sorted returns every user's pre-sorted column of one feature-week
// (shared, read-only) — the input shape of the stats fast path.
func (w *Workspace) Sorted(f features.Feature, week int) [][]float64 {
	if w.parent != nil {
		return window(w.parent.Sorted(f, week), w.parentLo, w.users)
	}
	return w.ensureBlock(f, week).sorted
}

// Dists returns every user's memoized empirical distribution of one
// feature-week. The distributions share the workspace's sorted
// columns (zero-copy) and are safe for concurrent use.
func (w *Workspace) Dists(f features.Feature, week int) []*stats.Empirical {
	if w.parent != nil {
		return window(w.parent.Dists(f, week), w.parentLo, w.users)
	}
	return w.ensureBlock(f, week).dists
}

// window returns the n-element window of a parent-indexed slice that
// starts at lo, capped so appends cannot reach the parent's elements.
func window[T any](s []T, lo, n int) []T {
	return s[lo : lo+n : lo+n]
}

// Memo returns the value of fn memoized under key. The first caller
// computes; concurrent callers of the same key block until the value
// is ready; errors are memoized too. The returned value is shared —
// callers must treat it as read-only.
func (w *Workspace) Memo(key string, fn func() (any, error)) (any, error) {
	w.mu.Lock()
	cell, ok := w.memo[key]
	if !ok {
		if w.memo == nil {
			w.memo = make(map[string]*memoCell)
		}
		cell = &memoCell{}
		w.memo[key] = cell
	}
	w.mu.Unlock()
	cell.once.Do(func() { cell.val, cell.err = fn() })
	return cell.val, cell.err
}

// Close releases the workspace's backing store mapping, when it was
// loaded from one; a heap store stays until nothing references it.
// After Close every view the workspace ever returned — matrices,
// columns, distributions — is invalid: the caller must guarantee no
// goroutine still reads them.
func (w *Workspace) Close() error {
	if w.snap == nil {
		return nil
	}
	s := w.snap
	w.snap = nil
	return s.Close()
}

// TailStats returns every user's q-quantile of one feature-week in
// user order — the per-user thresholds Fig 1 plots — computed once
// from the pre-sorted columns and memoized. The returned slice is
// shared and must not be modified.
func (w *Workspace) TailStats(f features.Feature, week int, q float64) ([]float64, error) {
	key := fmt.Sprintf("tail/%d/%d/%g", int(f), week, q)
	v, err := w.Memo(key, func() (any, error) {
		out := make([]float64, w.users)
		err := w.StreamShards(0, func(view *Workspace, lo, hi int) error {
			for u, col := range view.Sorted(f, week) {
				t, err := stats.QuantileSorted(col, q)
				if err != nil {
					return fmt.Errorf("analysis: user %d %s: %w", lo+u, f, err)
				}
				out[lo+u] = t
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	return v.([]float64), nil
}

// Sweep returns the memoized attack-size sweep for one feature and
// training week: n geometrically spaced sizes from 1 up to the
// maximum feature value any user exhibits in that week (§6.1). The
// maximum is read off the pre-sorted columns in O(users). The
// returned slice is shared and must not be modified.
func (w *Workspace) Sweep(f features.Feature, trainWeek, n int) []float64 {
	key := fmt.Sprintf("sweep/%d/%d/%d", int(f), trainWeek, n)
	v, _ := w.Memo(key, func() (any, error) {
		// Max is a fold over disjoint shard maxima; the mutex only
		// orders the per-shard folds, the result is order-free.
		var (
			max float64
			mu  sync.Mutex
		)
		err := w.StreamShards(0, func(view *Workspace, lo, hi int) error {
			local := 0.0
			for _, col := range view.Sorted(f, trainWeek) {
				if len(col) > 0 && col[len(col)-1] > local {
					local = col[len(col)-1]
				}
			}
			mu.Lock()
			if local > max {
				max = local
			}
			mu.Unlock()
			return nil
		})
		if err != nil {
			return nil, err
		}
		if max < 2 {
			max = 2
		}
		return GeomSpace(1, max, n), nil
	})
	return v.([]float64)
}

// Assignment returns the memoized threshold configuration of one
// policy on one feature's training week: the policy's heuristic step
// over the group fold every heuristic of the same (feature, week,
// grouping) shares (see configure). sweepKey must uniquely identify the
// attack-magnitude input (use "" for nil magnitudes): the cache key is
// (feature, week, policy name, sweepKey). Percentile and MeanSigma
// thresholds ignore attack magnitudes, so for them attack and sweepKey
// are dropped and every sweep shares the nil-sweep entry. The returned
// assignment is shared and must not be modified.
func (w *Workspace) Assignment(f features.Feature, trainWeek int, pol core.Policy, attack []float64, sweepKey string) (*core.Assignment, error) {
	switch pol.Heuristic.(type) {
	case core.Percentile, core.MeanSigma:
		attack, sweepKey = nil, ""
	}
	key := fmt.Sprintf("asn/%d/%d/%s/%s", int(f), trainWeek, pol.Name(), sweepKey)
	v, err := w.Memo(key, func() (any, error) {
		return w.configure(f, trainWeek, pol, attack)
	})
	if err != nil {
		return nil, err
	}
	return v.(*core.Assignment), nil
}

// DaySorted returns, for every user, the per-day sorted window values
// of one feature-week: out[u][d] holds day d's windows of user u's
// column, sorted ascending. Fig 4a's day-long constant-overlay attack
// sweeps read their TP counts off these columns with one binary
// search per (policy, size, day, user) instead of re-walking every
// window per magnitude. The result is memoized (a view of an unbounded
// workspace windows the parent's); slices are shared and read-only.
func (w *Workspace) DaySorted(f features.Feature, week int) [][][]float64 {
	if w.parent != nil {
		return window(w.parent.DaySorted(f, week), w.parentLo, w.users)
	}
	key := fmt.Sprintf("daysorted/%d/%d", int(f), week)
	v, _ := w.Memo(key, func() (any, error) {
		// Day views ship pre-sorted in every record: serve them as
		// zero-copy views of the store.
		out := make([][][]float64, w.users)
		par.ForEach(w.users, 0, func(u int) {
			out[u] = w.snap.DayColumns(w.userBase+u, week, int(f))
		})
		return out, nil
	})
	return v.([][][]float64)
}

// GeomSpace returns n geometrically spaced values over [lo, hi],
// guarding the degenerate inputs that used to yield NaN/Inf
// magnitudes (empty training weeks drive hi to 0): non-positive or
// non-finite bounds are clamped so the result is always finite and
// non-decreasing.
func GeomSpace(lo, hi float64, n int) []float64 {
	if lo <= 0 || math.IsNaN(lo) || math.IsInf(lo, 0) {
		lo = 1
	}
	if hi <= lo || math.IsNaN(hi) || math.IsInf(hi, 0) {
		hi = lo
	}
	if n < 2 {
		return []float64{hi}
	}
	out := make([]float64, n)
	if hi == lo {
		for i := range out {
			out[i] = lo
		}
		return out
	}
	ratio := hi / lo
	for i := range out {
		out[i] = lo * math.Pow(ratio, float64(i)/float64(n-1))
	}
	return out
}
