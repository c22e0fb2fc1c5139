package analysis

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/features"
)

// streamedPair materializes one sharded store and maps it twice: a
// whole-heap workspace and a streaming one armed with shardUsers.
// Both read the same sealed bytes, so any divergence is the streaming
// layer's fault alone.
func streamedPair(t *testing.T, users int, seed uint64, shardUsers int) (whole, streamed *Workspace) {
	t.Helper()
	pop, key := popAndKey(t, users, 2, seed, 6*time.Hour)
	dir := t.TempDir()
	gen := func(u int, rows [][features.NumFeatures]float64) {
		pop.Users[u].FillSeries(rows)
	}
	ws, err := MaterializeSharded(context.Background(), dir, key, 0, gen)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ws.Close() })
	streamed, err = Load(dir, key)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { streamed.Close() })
	streamed.SetStreamShard(shardUsers)
	if !streamed.Streaming() {
		t.Fatal("SetStreamShard did not arm streaming on a mapped workspace")
	}
	return ws, streamed
}

// TestStreamingMatchesWholeHeap is the tentpole's equivalence pin:
// every population-wide artifact computed through bounded shards must
// be bit-identical — not close — to the whole-heap computation, for
// shard sizes bracketing the geometry (single user, odd size that
// leaves a ragged tail, larger than the population, exactly the
// population) and for a heavy-tail seed on each. The shared p99 pass
// that groups every streamed policy is therefore pinned
// shard-size-invariant too.
func TestStreamingMatchesWholeHeap(t *testing.T) {
	const users = 37
	policies := []core.Policy{
		{Heuristic: core.Percentile{Q: 0.99}, Grouping: core.Homogeneous{}},
		{Heuristic: core.Percentile{Q: 0.99}, Grouping: core.FullDiversity{}},
		{Heuristic: core.UtilityOptimal{W: 0.4}, Grouping: core.PartialDiversity{NumGroups: 8}},
		// No bounded fold for MeanSigma over merged groups: the
		// streaming path must fall back to the whole-heap configure
		// and still agree.
		{Heuristic: core.MeanSigma{K: 3}, Grouping: core.Homogeneous{}},
	}
	for _, tc := range []struct {
		seed  uint64
		shard int
	}{
		{53, 1}, {53, 7}, {87, 7}, {87, 128}, {53, users}, {87, users},
	} {
		whole, streamed := streamedPair(t, users, tc.seed, tc.shard)
		f, trainWeek, testWeek := features.TCP, 0, 1

		wt, err := whole.TailStats(f, trainWeek, 0.99)
		if err != nil {
			t.Fatal(err)
		}
		st, err := streamed.TailStats(f, trainWeek, 0.99)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wt, st) {
			t.Fatalf("seed %d shard %d: tail stats diverge", tc.seed, tc.shard)
		}
		wsw, ssw := whole.Sweep(f, trainWeek, 24), streamed.Sweep(f, trainWeek, 24)
		for i := range wsw {
			if math.Float64bits(wsw[i]) != math.Float64bits(ssw[i]) {
				t.Fatalf("seed %d shard %d: sweep[%d] %v != %v", tc.seed, tc.shard, i, ssw[i], wsw[i])
			}
		}
		for _, pol := range policies {
			wa, err := whole.Assignment(f, trainWeek, pol, wsw, "sp24")
			if err != nil {
				t.Fatal(err)
			}
			sa, err := streamed.Assignment(f, trainWeek, pol, ssw, "sp24")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(wa, sa) {
				t.Fatalf("seed %d shard %d %s: assignments diverge", tc.seed, tc.shard, pol.Name())
			}
			shared := make([]float64, whole.BinsPerWeek())
			for i := range shared {
				if i%4 == 3 {
					shared[i] = wsw[i%len(wsw)]
				}
			}
			for _, overlay := range [][]float64{nil, shared} {
				attack := make([][]float64, users)
				if overlay != nil {
					for u := range attack {
						attack[u] = overlay
					}
				}
				want, err := core.EvaluatePolicy(core.EvalInput{
					Test:       whole.Raw(f, testWeek),
					Attack:     attack,
					Policy:     pol,
					Assignment: wa,
				})
				if err != nil {
					t.Fatal(err)
				}
				got, err := streamed.EvaluateSharded(f, testWeek, sa, overlay, 4)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("seed %d shard %d %s overlay=%v: evaluations diverge",
						tc.seed, tc.shard, pol.Name(), overlay != nil)
				}
			}
		}
	}
}

// TestViewRangeIsBitIdenticalWindow pins that a shard view serves the
// exact slices the parent serves for the same users — the property the
// whole streaming contract rests on — and that views reject nonsense
// ranges loudly.
func TestViewRangeIsBitIdenticalWindow(t *testing.T) {
	whole, streamed := streamedPair(t, 19, 53, 7)
	view := streamed.ViewRange(5, 12)
	if view.Users() != 7 {
		t.Fatalf("view users = %d, want 7", view.Users())
	}
	for week := 0; week < whole.Weeks(); week++ {
		for _, f := range features.All() {
			pr, ps := whole.Raw(f, week), whole.Sorted(f, week)
			vr, vs := view.Raw(f, week), view.Sorted(f, week)
			for u := 0; u < view.Users(); u++ {
				if !reflect.DeepEqual(vr[u], pr[5+u]) || !reflect.DeepEqual(vs[u], ps[5+u]) {
					t.Fatalf("%s week %d: view user %d diverges from parent user %d", f, week, u, 5+u)
				}
			}
			pd, vd := whole.DaySorted(f, week), view.DaySorted(f, week)
			for u := 0; u < view.Users(); u++ {
				if !reflect.DeepEqual(vd[u], pd[5+u]) {
					t.Fatalf("%s week %d: view day columns for user %d diverge", f, week, u)
				}
			}
		}
	}
	for _, r := range [][2]int{{-1, 3}, {3, 3}, {5, 99}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ViewRange(%d, %d) did not panic", r[0], r[1])
				}
			}()
			streamed.ViewRange(r[0], r[1])
		}()
	}
}

// TestStreamShardsCoversEveryUserConcurrently runs the fold with more
// workers than shards on shared state — the -race guard for the
// parallel fan-out — and checks exact disjoint tiling of [0, users).
func TestStreamShardsCoversEveryUserConcurrently(t *testing.T) {
	_, streamed := streamedPair(t, 23, 87, 5)
	seen := make([]int, 23)
	var mu sync.Mutex
	err := streamed.StreamShards(8, func(view *Workspace, lo, hi int) error {
		if view.Users() != hi-lo {
			t.Errorf("view covers %d users for range [%d, %d)", view.Users(), lo, hi)
		}
		mu.Lock()
		defer mu.Unlock()
		for u := lo; u < hi; u++ {
			seen[u]++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for u, n := range seen {
		if n != 1 {
			t.Fatalf("user %d visited %d times", u, n)
		}
	}
}

// TestStreamingWorkspaceServesIdenticalViews runs the full workspace
// equivalence battery (matrices, raw/sorted/day columns, tails,
// distributions) over a streaming-armed mapping vs a plain one.
func TestStreamingWorkspaceServesIdenticalViews(t *testing.T) {
	whole, streamed := streamedPair(t, 16, 53, 3)
	requireEqualWorkspaces(t, streamed, whole)
}

// sortedOnlyPasses runs every analysis that needs sorted columns only
// over w: tail statistics, the sweep, a percentile and a utility
// assignment each scored by the streaming evaluation, and the
// distributions.
func sortedOnlyPasses(t *testing.T, w *Workspace) {
	t.Helper()
	f := features.TCP
	if _, err := w.TailStats(f, 0, 0.99); err != nil {
		t.Fatal(err)
	}
	sweep := w.Sweep(f, 0, 8)
	for _, pol := range []core.Policy{
		{Heuristic: core.Percentile{Q: 0.99}, Grouping: core.Homogeneous{}},
		{Heuristic: core.UtilityOptimal{W: 0.4}, Grouping: core.PartialDiversity{NumGroups: 4}},
	} {
		asn, err := w.Assignment(f, 0, pol, sweep, "sp8")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.EvaluateSharded(f, 1, asn, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	w.Dists(f, 1)
}

// requireNoRaw fails if any block w has built holds raw columns.
func requireNoRaw(t *testing.T, name string, w *Workspace) {
	t.Helper()
	built := 0
	for idx, b := range w.blocks {
		if b == nil {
			continue
		}
		built++
		if b.raw != nil {
			t.Fatalf("%s: block %d copied its raw columns", name, idx)
		}
	}
	if built == 0 {
		t.Fatalf("%s: no block was built", name)
	}
}

// TestSnapshotRawColumnsAreLazy pins that on a mapped store the passes
// reading sorted columns never copy a raw column out of the mapping —
// on the full workspace, whole-heap or streaming, and on every shard
// view — that a later Raw still serves the in-memory workspace's
// columns bit for bit, and that a streaming TailStats pass allocates
// well under one raw block.
func TestSnapshotRawColumnsAreLazy(t *testing.T) {
	const users, shard = 64, 16
	pop, key := popAndKey(t, users, 2, 53, 15*time.Minute)
	dir := t.TempDir()
	whole, err := MaterializeSharded(context.Background(), dir, key, 0, func(u int, rows [][features.NumFeatures]float64) {
		pop.Users[u].FillSeries(rows)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { whole.Close() })
	load := func() *Workspace {
		t.Helper()
		w, err := Load(dir, key)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		w.SetStreamShard(shard)
		return w
	}
	streamed := load()
	sortedOnlyPasses(t, whole)
	requireNoRaw(t, "whole-heap", whole)
	sortedOnlyPasses(t, streamed)
	requireNoRaw(t, "streaming", streamed)

	matrices := make([]*features.Matrix, users)
	for u := range matrices {
		matrices[u] = pop.Users[u].Series()
	}
	ref := New(matrices)
	// One worker runs every shard on this goroutine, so the callback
	// may fail the test directly.
	err = streamed.StreamShards(1, func(view *Workspace, lo, hi int) error {
		sortedOnlyPasses(t, view)
		requireNoRaw(t, fmt.Sprintf("view [%d, %d)", lo, hi), view)
		got, want := view.Raw(features.TCP, 1), ref.Raw(features.TCP, 1)[lo:hi]
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("view [%d, %d): raw columns diverge from the in-memory workspace", lo, hi)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent first calls share one extraction.
	cols := make([][][]float64, 4)
	var wg sync.WaitGroup
	for i := range cols {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cols[i] = streamed.Raw(features.UDP, 0)
		}()
	}
	wg.Wait()
	for i := range cols {
		if &cols[i][0][0] != &cols[0][0][0] {
			t.Fatal("concurrent Raw calls extracted the block more than once")
		}
	}
	for week := 0; week < ref.Weeks(); week++ {
		for _, f := range features.All() {
			if !reflect.DeepEqual(streamed.Raw(f, week), ref.Raw(f, week)) {
				t.Fatalf("%s week %d: raw columns diverge from the in-memory workspace", f, week)
			}
		}
	}

	fresh := load()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := fresh.TailStats(features.UDP, 0, 0.99); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	budget := uint64(users*fresh.BinsPerWeek()*8) / 4
	if got := after.TotalAlloc - before.TotalAlloc; got >= budget {
		t.Fatalf("streaming TailStats allocated %d bytes, want < %d (a quarter of one raw block)", got, budget)
	}
}
