package analysis

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/snapshot"
)

// streamedPair materializes one sharded store and maps it twice: an
// unarmed (unbounded) workspace and a bounded one armed with
// shardUsers. Both read the same sealed bytes, so any divergence is
// the bounded layer's fault alone.
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
	streamed = loadArmed(t, dir, key, shardUsers)
	return ws, streamed
}

// loadArmed maps the store under dir and arms it with shardUsers.
func loadArmed(t *testing.T, dir string, key snapshot.Key, shardUsers int) *Workspace {
	t.Helper()
	w, err := Load(dir, key)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	w.SetStreamShard(shardUsers)
	if !w.bounded() {
		t.Fatal("SetStreamShard did not bound a mapped workspace")
	}
	return w
}

// TestShardSizeInvariance pins the fold contract: every
// population-wide artifact must be bit-identical — not close — however
// the population is cut. The inputs are one mapped store read at shard
// sizes bracketing the geometry (single user, an odd size that leaves
// a ragged tail, larger than the population, exactly the population),
// the same store unarmed (four shards per worker), and a heap
// workspace over the same matrices, for a heavy-tail seed on each.
// Evaluations are also pinned to core.EvaluatePolicy over the
// population's raw test columns.
func TestShardSizeInvariance(t *testing.T) {
	const users = 37
	policies := []core.Policy{
		{Heuristic: core.Percentile{Q: 0.99}, Grouping: core.Homogeneous{}},
		{Heuristic: core.Percentile{Q: 0.99}, Grouping: core.FullDiversity{}},
		{Heuristic: core.UtilityOptimal{W: 0.4}, Grouping: core.PartialDiversity{NumGroups: 8}},
		// MeanSigma folds merged groups through the accumulator's
		// run-ordered moments and must agree like every other policy.
		{Heuristic: core.MeanSigma{K: 3}, Grouping: core.Homogeneous{}},
	}
	f, trainWeek, testWeek := features.TCP, 0, 1
	for _, seed := range []uint64{53, 87} {
		pop, key := popAndKey(t, users, 2, seed, 6*time.Hour)
		dir := t.TempDir()
		unarmed, err := MaterializeSharded(context.Background(), dir, key, 0, func(u int, rows [][features.NumFeatures]float64) {
			pop.Users[u].FillSeries(rows)
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { unarmed.Close() })
		names := []string{"heap", "unarmed"}
		inputs := []*Workspace{generated(t, unarmed.Matrices()), unarmed}
		for _, shard := range []int{1, 7, 128, users} {
			names = append(names, fmt.Sprintf("shard %d", shard))
			inputs = append(inputs, loadArmed(t, dir, key, shard))
		}
		test := inputs[0].Raw(f, testWeek)

		wantTail, err := inputs[0].TailStats(f, trainWeek, 0.99)
		if err != nil {
			t.Fatal(err)
		}
		wantSweep := inputs[0].Sweep(f, trainWeek, 24)
		shared := make([]float64, inputs[0].BinsPerWeek())
		for i := range shared {
			if i%4 == 3 {
				shared[i] = wantSweep[i%len(wantSweep)]
			}
		}
		for i, w := range inputs {
			name := fmt.Sprintf("seed %d %s", seed, names[i])
			tail, err := w.TailStats(f, trainWeek, 0.99)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(tail, wantTail) {
				t.Fatalf("%s: tail stats diverge", name)
			}
			sweep := w.Sweep(f, trainWeek, 24)
			for k := range wantSweep {
				if math.Float64bits(sweep[k]) != math.Float64bits(wantSweep[k]) {
					t.Fatalf("%s: sweep[%d] %v != %v", name, k, sweep[k], wantSweep[k])
				}
			}
			for _, pol := range policies {
				asn, err := w.Assignment(f, trainWeek, pol, sweep, "sp24")
				if err != nil {
					t.Fatal(err)
				}
				want, err := core.Configure(inputs[0].Dists(f, trainWeek), pol, wantSweep)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(asn, want) {
					t.Fatalf("%s %s: assignment diverges from core.Configure", name, pol.Name())
				}
				for _, overlay := range [][]float64{nil, shared} {
					attack := make([][]float64, users)
					if overlay != nil {
						for u := range attack {
							attack[u] = overlay
						}
					}
					wantEval, err := core.EvaluatePolicy(core.EvalInput{
						Test: test, Attack: attack, Policy: pol, Assignment: asn,
					})
					if err != nil {
						t.Fatal(err)
					}
					got, err := w.EvaluateSharded(f, testWeek, asn, overlay, 4)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, wantEval) {
						t.Fatalf("%s %s overlay=%v: evaluation diverges from core.EvaluatePolicy",
							name, pol.Name(), overlay != nil)
					}
				}
			}
		}
	}
}

// TestScoreMatchesEvaluateSharded pins the multi-job pass: one k-job
// Score is DeepEqual to k one-job EvaluateSharded calls and to
// core.EvaluatePolicy over the raw test columns, on a heap
// workspace, the unarmed store and the store bounded at shard sizes
// bracketing the population.
func TestScoreMatchesEvaluateSharded(t *testing.T) {
	const users = 37
	f, trainWeek, testWeek := features.TCP, 0, 1
	pop, key := popAndKey(t, users, 2, 87, 6*time.Hour)
	dir := t.TempDir()
	unarmed, err := MaterializeSharded(context.Background(), dir, key, 0, func(u int, rows [][features.NumFeatures]float64) {
		pop.Users[u].FillSeries(rows)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { unarmed.Close() })
	names := []string{"heap", "unarmed"}
	inputs := []*Workspace{generated(t, unarmed.Matrices()), unarmed}
	for _, shard := range []int{1, 7, 128, users} {
		names = append(names, fmt.Sprintf("shard %d", shard))
		inputs = append(inputs, loadArmed(t, dir, key, shard))
	}
	test := inputs[0].Raw(f, testWeek)
	sweep := inputs[0].Sweep(f, trainWeek, 24)
	overlay := make([]float64, inputs[0].BinsPerWeek())
	for i := 3; i < len(overlay); i += 4 {
		overlay[i] = sweep[i%len(sweep)]
	}
	policies := []core.Policy{
		{Heuristic: core.Percentile{Q: 0.99}, Grouping: core.Homogeneous{}},
		{Heuristic: core.Percentile{Q: 0.99}, Grouping: core.FullDiversity{}},
		{Heuristic: core.UtilityOptimal{W: 0.4}, Grouping: core.PartialDiversity{NumGroups: 8}},
	}
	for i, w := range inputs {
		var jobs []Scoring
		for _, pol := range policies {
			asn, err := w.Assignment(f, trainWeek, pol, sweep, "sp24")
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, Scoring{Assignment: asn}, Scoring{Assignment: asn, Overlay: overlay})
		}
		got, err := w.Score(f, testWeek, jobs, 0)
		if err != nil {
			t.Fatal(err)
		}
		for j, job := range jobs {
			one, err := w.EvaluateSharded(f, testWeek, job.Assignment, job.Overlay, 3)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[j], one) {
				t.Fatalf("%s job %d: Score diverges from EvaluateSharded", names[i], j)
			}
			attack := make([][]float64, users)
			if job.Overlay != nil {
				for u := range attack {
					attack[u] = job.Overlay
				}
			}
			want, err := core.EvaluatePolicy(core.EvalInput{Test: test, Attack: attack, Assignment: job.Assignment})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[j], want) {
				t.Fatalf("%s job %d: Score diverges from core.EvaluatePolicy", names[i], j)
			}
		}
	}
}

// TestUnboundedViewsAliasParent pins the two view kinds apart: a view
// of an unbounded workspace (heap or unarmed mapped) serves the
// parent's own sorted columns and distributions, not copies, while a
// bounded view wires fresh ones from the mapping.
func TestUnboundedViewsAliasParent(t *testing.T) {
	const lo, hi = 3, 9
	unarmed, bounded := streamedPair(t, 13, 53, 4)
	for _, tc := range []struct {
		name  string
		w     *Workspace
		alias bool
	}{
		{"heap", generated(t, unarmed.Matrices()), true},
		{"unarmed", unarmed, true},
		{"bounded", bounded, false},
	} {
		view := tc.w.ViewRange(lo, hi)
		for week := 0; week < tc.w.Weeks(); week++ {
			f := features.UDP
			vs, ps := view.Sorted(f, week), tc.w.Sorted(f, week)
			vd, pd := view.Dists(f, week), tc.w.Dists(f, week)
			for u := range vs {
				if got := &vs[u] == &ps[lo+u]; got != tc.alias {
					t.Fatalf("%s week %d user %d: sorted column aliases parent = %v, want %v", tc.name, week, u, got, tc.alias)
				}
				if got := vd[u] == pd[lo+u]; got != tc.alias {
					t.Fatalf("%s week %d user %d: distribution aliases parent = %v, want %v", tc.name, week, u, got, tc.alias)
				}
				if !reflect.DeepEqual(vs[u], ps[lo+u]) {
					t.Fatalf("%s week %d user %d: sorted column diverges from parent", tc.name, week, u)
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
// parallel fan-out — and checks exact disjoint tiling of [0, users),
// for a bounded workspace and a heap one.
func TestStreamShardsCoversEveryUserConcurrently(t *testing.T) {
	const users = 23
	unarmed, streamed := streamedPair(t, users, 87, 5)
	for name, w := range map[string]*Workspace{"bounded": streamed, "heap": generated(t, unarmed.Matrices())} {
		seen := make([]int, users)
		var mu sync.Mutex
		err := w.StreamShards(8, func(view *Workspace, lo, hi int) error {
			if view.Users() != hi-lo {
				t.Errorf("%s: view covers %d users for range [%d, %d)", name, view.Users(), lo, hi)
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
				t.Fatalf("%s: user %d visited %d times", name, u, n)
			}
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
// assignment each scored by the streaming evaluation, Fig 5's pass
// (three percentile policies on the distinct-connections feature, each
// scored clean and under the Storm overlay in one Score), and the
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
	bot, err := attack.NewStorm(attack.StormConfig{Bins: w.BinsPerWeek(), BinWidth: w.BinWidth(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	storm := bot.Overlay().Overlay
	var jobs []Scoring
	for _, g := range []core.Grouping{core.Homogeneous{}, core.FullDiversity{}, core.PartialDiversity{NumGroups: 8}} {
		asn, err := w.Assignment(features.Distinct, 0, core.Policy{Heuristic: core.Percentile{Q: 0.99}, Grouping: g}, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, Scoring{Assignment: asn}, Scoring{Assignment: asn, Overlay: storm})
	}
	if _, err := w.Score(features.Distinct, 1, jobs, 0); err != nil {
		t.Fatal(err)
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

// TestSnapshotRawColumnsAreLazy pins that the passes reading sorted
// columns — Fig 5's Storm scoring included — never copy a raw column
// out of the records — on a mapped store, whole-heap or streaming, on
// every shard view, and on a heap store — that a later Raw still
// serves the columns of the generated matrices bit for bit, and that a
// streaming TailStats pass allocates well under one raw block.
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
	heap := generated(t, matrices)
	sortedOnlyPasses(t, heap)
	requireNoRaw(t, "heap", heap)
	// rawOf is the reference: each matrix's column, sliced directly.
	rawOf := func(f features.Feature, week, lo, hi int) [][]float64 {
		out := make([][]float64, 0, hi-lo)
		for _, m := range matrices[lo:hi] {
			blo, bhi := m.WeekRange(week)
			out = append(out, m.ColumnSlice(f, blo, bhi))
		}
		return out
	}
	// One worker runs every shard on this goroutine, so the callback
	// may fail the test directly.
	err = streamed.StreamShards(1, func(view *Workspace, lo, hi int) error {
		sortedOnlyPasses(t, view)
		requireNoRaw(t, fmt.Sprintf("view [%d, %d)", lo, hi), view)
		if got, want := view.Raw(features.TCP, 1), rawOf(features.TCP, 1, lo, hi); !reflect.DeepEqual(got, want) {
			t.Fatalf("view [%d, %d): raw columns diverge from the matrices", lo, hi)
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
	for week := 0; week < heap.Weeks(); week++ {
		for _, f := range features.All() {
			want := rawOf(f, week, 0, users)
			if !reflect.DeepEqual(streamed.Raw(f, week), want) {
				t.Fatalf("%s week %d: mapped raw columns diverge from the matrices", f, week)
			}
			if !reflect.DeepEqual(heap.Raw(f, week), want) {
				t.Fatalf("%s week %d: heap raw columns diverge from the matrices", f, week)
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

// measuredAloneEnv names the test a re-executed test binary runs on
// its own (see runAlone).
const measuredAloneEnv = "REPRO_ANALYSIS_MEASURED_ALONE"

// runAlone makes an allocation measurement deterministic. In the test
// binary go test started, it re-executes the binary to run only the
// calling test and returns false: the caller returns without
// measuring. The caller fails with the child's output unless the child
// reports the test passed, so a child that ran nothing does not pass
// it, and the child's output is logged, so its measurements show under
// -v. In that child it returns true and the caller measures. A process
// that runs one test has no other test's goroutines allocating, so
// runtime.MemStats.TotalAlloc, which counts the whole process, counts
// only the measured calls, whatever the test order or the load.
func runAlone(t *testing.T) bool {
	t.Helper()
	if os.Getenv(measuredAloneEnv) == t.Name() {
		return true
	}
	cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$", "-test.count=1", "-test.v")
	cmd.Env = append(os.Environ(), measuredAloneEnv+"="+t.Name())
	out, err := cmd.CombinedOutput()
	if err != nil || !bytes.Contains(out, []byte("--- PASS: "+t.Name()+" ")) {
		t.Fatalf("%s run alone: %v\n%s", t.Name(), err, out)
	}
	t.Logf("%s run alone:\n%s", t.Name(), out)
	return false
}

// TestBoundedAssignmentReleasesShards pins that every policy's
// Assignment on a bounded workspace — MeanSigma over a merged group
// included — folds shard by shard: the full workspace never wires the
// training block, and the pass allocates less than one raw block, the
// size of a merged copy of the population's samples. It measures in a
// process of its own (runAlone).
func TestBoundedAssignmentReleasesShards(t *testing.T) {
	if !runAlone(t) {
		return
	}
	const users, shard = 64, 16
	pop, key := popAndKey(t, users, 2, 53, 15*time.Minute)
	dir := t.TempDir()
	whole, err := MaterializeSharded(context.Background(), dir, key, 0, func(u int, rows [][features.NumFeatures]float64) {
		pop.Users[u].FillSeries(rows)
	})
	if err != nil {
		t.Fatal(err)
	}
	whole.Close()
	f, trainWeek := features.TCP, 0
	for _, pol := range []core.Policy{
		{Heuristic: core.Percentile{Q: 0.99}, Grouping: core.Homogeneous{}},
		{Heuristic: core.MeanSigma{K: 3}, Grouping: core.Homogeneous{}},
		{Heuristic: core.MeanSigma{K: 3}, Grouping: core.PartialDiversity{NumGroups: 4}},
	} {
		w := loadArmed(t, dir, key, shard)
		if _, err := w.TailStats(f, trainWeek, 0.99); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := w.Assignment(f, trainWeek, pol, nil, ""); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		for idx, b := range w.blocks {
			if b != nil {
				t.Fatalf("%s: the full workspace wired block %d", pol.Name(), idx)
			}
		}
		budget := uint64(users * w.BinsPerWeek() * 8)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: Assignment allocated %d bytes of a %d-byte budget", pol.Name(), got, budget)
		if got >= budget {
			t.Fatalf("%s: Assignment allocated %d bytes, want < %d (one raw block)", pol.Name(), got, budget)
		}
	}
}
