package analysis

import (
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/stats"
	"repro/internal/trace"
)

// testMatrices builds a small deterministic population: user u's
// feature f value in bin b is a simple mix of all three indices.
func testMatrices(users, weeks int) []*features.Matrix {
	const binWidth = 6 * time.Hour // 28 bins/week keeps the test fast
	bpw := int((7 * 24 * time.Hour) / binWidth)
	out := make([]*features.Matrix, users)
	for u := 0; u < users; u++ {
		m := features.NewMatrix(binWidth, 0, weeks*bpw)
		for b := range m.Rows {
			for f := 0; f < features.NumFeatures; f++ {
				m.Rows[b][f] = float64((u + 1) * (f + 2) * ((b * 7) % 13) % 101)
			}
		}
		out[u] = m
	}
	return out
}

func TestWorkspaceColumnsMatchMatrix(t *testing.T) {
	ms := testMatrices(5, 2)
	ws := New(ms)
	if ws.Users() != 5 || ws.Weeks() != 2 {
		t.Fatalf("geometry: %d users, %d weeks", ws.Users(), ws.Weeks())
	}
	for week := 0; week < 2; week++ {
		raw := ws.Raw(features.TCP, week)
		sorted := ws.Sorted(features.TCP, week)
		dists := ws.Dists(features.TCP, week)
		for u, m := range ms {
			lo, hi := m.WeekRange(week)
			want := m.ColumnSlice(features.TCP, lo, hi)
			if len(raw[u]) != len(want) {
				t.Fatalf("user %d raw length %d != %d", u, len(raw[u]), len(want))
			}
			for b := range want {
				if raw[u][b] != want[b] {
					t.Fatalf("user %d bin %d: raw %g != %g", u, b, raw[u][b], want[b])
				}
			}
			// Sorted view is a permutation with the same quantiles as a
			// freshly built distribution.
			ref, err := stats.NewEmpirical(want)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
				got, err := stats.QuantileSorted(sorted[u], q)
				if err != nil || got != ref.MustQuantile(q) {
					t.Fatalf("user %d q%g: %g != %g (%v)", u, q, got, ref.MustQuantile(q), err)
				}
				if dv := dists[u].MustQuantile(q); dv != ref.MustQuantile(q) {
					t.Fatalf("user %d dist q%g: %g != %g", u, q, dv, ref.MustQuantile(q))
				}
			}
		}
	}
	// Memoized: same backing arrays on the second call.
	if &ws.Raw(features.TCP, 0)[0][0] != &ws.Raw(features.TCP, 0)[0][0] {
		t.Fatal("Raw not cached")
	}
}

func TestWorkspaceTailStats(t *testing.T) {
	ms := testMatrices(4, 1)
	ws := New(ms)
	tails, err := ws.TailStats(features.UDP, 0, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if len(tails) != 4 {
		t.Fatalf("%d tails", len(tails))
	}
	for u, m := range ms {
		lo, hi := m.WeekRange(0)
		d, _ := m.Distribution(features.UDP, lo, hi)
		if want := d.MustQuantile(0.99); tails[u] != want {
			t.Fatalf("user %d: %g != %g", u, tails[u], want)
		}
	}
	again, _ := ws.TailStats(features.UDP, 0, 0.99)
	if &again[0] != &tails[0] {
		t.Fatal("TailStats not memoized")
	}
}

func TestWorkspaceSweep(t *testing.T) {
	ms := testMatrices(3, 1)
	ws := New(ms)
	sweep := ws.Sweep(features.TCP, 0, 10)
	if len(sweep) != 10 || sweep[0] != 1 {
		t.Fatalf("sweep = %v", sweep)
	}
	var max float64
	for _, m := range ms {
		lo, hi := m.WeekRange(0)
		for b := lo; b < hi; b++ {
			if v := m.Rows[b][features.TCP]; v > max {
				max = v
			}
		}
	}
	if math.Abs(sweep[len(sweep)-1]-max) > 1e-9*max {
		t.Fatalf("sweep max %g != population max %g", sweep[len(sweep)-1], max)
	}
	if again := ws.Sweep(features.TCP, 0, 10); &again[0] != &sweep[0] {
		t.Fatal("Sweep not memoized")
	}
}

func TestWorkspaceAssignmentMemoized(t *testing.T) {
	ws := New(testMatrices(6, 1))
	pol := core.Policy{Heuristic: core.Percentile{Q: 0.99}, Grouping: core.FullDiversity{}}
	a1, err := ws.Assignment(features.TCP, 0, pol, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	a2, err := ws.Assignment(features.TCP, 0, pol, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("Assignment not memoized")
	}
	// A different policy must get its own cache slot.
	other, err := ws.Assignment(features.TCP, 0,
		core.Policy{Heuristic: core.Percentile{Q: 0.99}, Grouping: core.Homogeneous{}}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if other == a1 {
		t.Fatal("distinct policies share a cache entry")
	}
}

// TestAssignmentAttackFreeHeuristicsShareOneEntry pins that a
// heuristic ignoring attack magnitudes configures once per policy
// whatever sweep it is asked under, while an objective heuristic keeps
// one entry per sweep.
func TestAssignmentAttackFreeHeuristicsShareOneEntry(t *testing.T) {
	ws := New(testMatrices(6, 1))
	sweep := ws.Sweep(features.TCP, 0, 10)
	for _, h := range []core.Heuristic{core.Percentile{Q: 0.99}, core.MeanSigma{K: 3}} {
		pol := core.Policy{Heuristic: h, Grouping: core.PartialDiversity{NumGroups: 2}}
		swept, err := ws.Assignment(features.TCP, 0, pol, sweep, "sp10")
		if err != nil {
			t.Fatal(err)
		}
		plain, err := ws.Assignment(features.TCP, 0, pol, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		if swept != plain {
			t.Fatalf("%s: the sp10 and nil-sweep requests configured twice", h.Name())
		}
	}
	pol := core.Policy{Heuristic: core.UtilityOptimal{W: 0.4}, Grouping: core.FullDiversity{}}
	a, err := ws.Assignment(features.TCP, 0, pol, sweep, "sp10")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ws.Assignment(features.TCP, 0, pol, sweep[:5], "sp5")
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("utility assignments under two sweeps share a cache entry")
	}
}

func TestMemoSingleFlight(t *testing.T) {
	ws := New(testMatrices(2, 1))
	var calls int
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := ws.Memo("k", func() (any, error) {
				calls++ // safe: Memo guarantees exactly one invocation
				return 42, nil
			})
			if err != nil || v.(int) != 42 {
				panic("memo value wrong")
			}
		}()
	}
	wg.Wait()
	if calls != 1 {
		t.Fatalf("memoized fn called %d times", calls)
	}
}

func TestGeomSpaceGuards(t *testing.T) {
	// The degenerate inputs that used to produce NaN/Inf.
	for _, tc := range []struct{ lo, hi float64 }{
		{0, 100}, {-5, 100}, {1, 0}, {1, 1}, {0, 0},
		{math.NaN(), 10}, {1, math.NaN()}, {1, math.Inf(1)},
	} {
		out := GeomSpace(tc.lo, tc.hi, 8)
		if len(out) != 8 {
			t.Fatalf("GeomSpace(%g,%g) length %d", tc.lo, tc.hi, len(out))
		}
		for i, v := range out {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("GeomSpace(%g,%g)[%d] = %g", tc.lo, tc.hi, i, v)
			}
			if i > 0 && v < out[i-1] {
				t.Fatalf("GeomSpace(%g,%g) decreasing at %d: %v", tc.lo, tc.hi, i, out)
			}
		}
	}
	// The healthy path is unchanged.
	v := GeomSpace(1, 100, 3)
	for i, want := range []float64{1, 10, 100} {
		if math.Abs(v[i]-want) > 1e-9 {
			t.Fatalf("GeomSpace(1,100,3) = %v", v)
		}
	}
}

// TestFrontiersMemoizedAndIdentical pins the workspace's per-user
// frontiers to fresh builds from the same distributions, and the
// frontier-backed Assignment to a frontier-free core.Configure.
func TestFrontiersMemoizedAndIdentical(t *testing.T) {
	ws := New(testMatrices(9, 2))
	attack := GeomSpace(1, 500, 6)
	fronts, err := ws.Frontiers(features.TCP, 0, attack, "sp6")
	if err != nil {
		t.Fatal(err)
	}
	again, err := ws.Frontiers(features.TCP, 0, attack, "sp6")
	if err != nil {
		t.Fatal(err)
	}
	if &fronts[0] != &again[0] {
		t.Fatal("frontiers not memoized: second call rebuilt the slice")
	}
	u := core.UtilityOptimal{W: 0.4}
	dists := ws.Dists(features.TCP, 0)
	for i, fr := range fronts {
		fresh, err := stats.NewFrontier(dists[i], attack)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fr.Maximize(u.Score), fresh.Maximize(u.Score); got != want {
			t.Fatalf("user %d: memoized frontier threshold %v != fresh %v", i, got, want)
		}
	}
	for _, h := range []core.Heuristic{core.UtilityOptimal{W: 0.4}, core.FMeasureOptimal{}} {
		pol := core.Policy{Heuristic: h, Grouping: core.FullDiversity{}}
		asn, err := ws.Assignment(features.TCP, 0, pol, attack, "sp6")
		if err != nil {
			t.Fatal(err)
		}
		ref, err := core.Configure(dists, pol, attack)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref.Thresholds {
			if asn.Thresholds[i] != ref.Thresholds[i] {
				t.Fatalf("%s: user %d cached-frontier threshold %v != plain Configure %v",
					pol.Name(), i, asn.Thresholds[i], ref.Thresholds[i])
			}
		}
	}
}

// TestDaySortedMatchesRaw checks the per-day sorted columns are exact
// sorted permutations of the raw day slices and are memoized.
func TestDaySortedMatchesRaw(t *testing.T) {
	ws := New(testMatrices(4, 2))
	days := ws.DaySorted(features.UDP, 1)
	raw := ws.Raw(features.UDP, 1)
	binsPerDay := ws.BinsPerWeek() / 7
	for u := range days {
		if len(days[u]) != 7 {
			t.Fatalf("user %d has %d days", u, len(days[u]))
		}
		for d := 0; d < 7; d++ {
			want := append([]float64(nil), raw[u][d*binsPerDay:(d+1)*binsPerDay]...)
			sort.Float64s(want)
			got := days[u][d]
			if len(got) != len(want) {
				t.Fatalf("user %d day %d: %d windows, want %d", u, d, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("user %d day %d window %d: %v != %v", u, d, i, got[i], want[i])
				}
			}
		}
	}
	if again := ws.DaySorted(features.UDP, 1); &again[0] != &days[0] {
		t.Fatal("day-sorted columns not memoized")
	}
}

// TestSplitOverlayMatchesEvaluate pins the sorted benign/attacked
// decomposition against a window-by-window core.Evaluate: identical
// confusion counts for every user and threshold.
func TestSplitOverlayMatchesEvaluate(t *testing.T) {
	ws := New(testMatrices(6, 2))
	bins := ws.BinsPerWeek()
	overlay := make([]float64, bins)
	for b := range overlay {
		if b%3 == 0 {
			overlay[b] = float64(5 + b%17)
		}
	}
	split, err := ws.SplitOverlay(features.TCP, 1, overlay, "test-overlay")
	if err != nil {
		t.Fatal(err)
	}
	raw := ws.Raw(features.TCP, 1)
	for u := range raw {
		for _, thr := range []float64{0, 10, 33.5, 90, 1e9} {
			want, err := core.Evaluate(raw[u], overlay, thr)
			if err != nil {
				t.Fatal(err)
			}
			tp := stats.CountAboveSorted(split.Attacked[u], thr)
			fp := stats.CountAboveSorted(split.Benign[u], thr)
			got := stats.Confusion{
				TP: tp, FN: len(split.Attacked[u]) - tp,
				FP: fp, TN: len(split.Benign[u]) - fp,
			}
			if got != want {
				t.Fatalf("user %d thr %g: split confusion %+v != Evaluate %+v", u, thr, got, want)
			}
		}
	}
	if _, err := ws.SplitOverlay(features.TCP, 1, overlay[:3], "short"); err == nil {
		t.Fatal("short overlay accepted")
	}
	neg := make([]float64, bins)
	neg[0] = -1
	if _, err := ws.SplitOverlay(features.TCP, 1, neg, "neg"); err == nil {
		t.Fatal("negative overlay accepted")
	}
}

// TestAssignmentsConcurrentFrontierSharing rebuilds the production
// race scenario: the three grouping policies of one objective
// heuristic configure in parallel (as evalPolicies does), and with a
// small population both full diversity and 8-partial produce
// singleton groups — so two goroutines sweep the same memoized
// per-user frontier simultaneously. Run under -race; thresholds must
// also match a serial reference workspace exactly.
func TestAssignmentsConcurrentFrontierSharing(t *testing.T) {
	ms := testMatrices(20, 2)
	attack := GeomSpace(1, 300, 8)
	h := core.UtilityOptimal{W: 0.4}
	pols := []core.Policy{
		{Heuristic: h, Grouping: core.Homogeneous{}},
		{Heuristic: h, Grouping: core.FullDiversity{}},
		{Heuristic: h, Grouping: core.PartialDiversity{NumGroups: 8}},
	}
	for round := 0; round < 10; round++ {
		ws := New(ms)
		got := make([]*core.Assignment, len(pols))
		var wg sync.WaitGroup
		for p := range pols {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				asn, err := ws.Assignment(features.TCP, 0, pols[p], attack, "sp8")
				if err != nil {
					panic(err)
				}
				got[p] = asn
			}(p)
		}
		wg.Wait()
		ref := New(ms) // serial reference
		for p, pol := range pols {
			want, err := ref.Assignment(features.TCP, 0, pol, attack, "sp8")
			if err != nil {
				t.Fatal(err)
			}
			for u := range want.Thresholds {
				if got[p].Thresholds[u] != want.Thresholds[u] {
					t.Fatalf("round %d %s: user %d threshold %v != serial %v",
						round, pol.Name(), u, got[p].Thresholds[u], want.Thresholds[u])
				}
			}
		}
	}
}

// TestNewGeneratedMatchesNewWarm pins the fused constructor to the
// two-pass flow: generating matrices inside NewGenerated's parallel
// pass must yield exactly the blocks New+Warm builds from the same
// matrices, and the workspace must adopt the produced matrices.
func TestNewGeneratedMatchesNewWarm(t *testing.T) {
	ms := testMatrices(12, 2)
	fused := NewGenerated(len(ms), func(u int) *features.Matrix { return ms[u] })
	ref := New(ms)
	ref.Warm()
	if got := fused.Matrices(); len(got) != len(ms) || got[3] != ms[3] {
		t.Fatal("fused workspace did not adopt the generated matrices")
	}
	for week := 0; week < fused.Weeks(); week++ {
		for _, f := range features.All() {
			gotRaw, wantRaw := fused.Raw(f, week), ref.Raw(f, week)
			gotSorted, wantSorted := fused.Sorted(f, week), ref.Sorted(f, week)
			for u := range wantRaw {
				for b := range wantRaw[u] {
					if gotRaw[u][b] != wantRaw[u][b] || gotSorted[u][b] != wantSorted[u][b] {
						t.Fatalf("%s week %d user %d: fused columns diverge", f, week, u)
					}
				}
				if fused.Dist(u, f, week).N() != ref.Dist(u, f, week).N() {
					t.Fatalf("%s week %d user %d: dists diverge", f, week, u)
				}
			}
		}
	}
}

// TestNewGeneratedParallelGeneration drives real trace generators
// from NewGenerated's worker pool into one shared workspace — the
// -race guard for the fused generate-extract-sort pass — and checks
// the result is identical to serial per-user generation.
func TestNewGeneratedParallelGeneration(t *testing.T) {
	pop := trace.MustPopulation(trace.Config{Users: 16, Weeks: 2, Seed: 21})
	ws := NewGenerated(len(pop.Users), func(u int) *features.Matrix {
		return pop.Users[u].Series()
	})
	for u, want := range pop.Users {
		m := want.Series()
		got := ws.Matrices()[u]
		for b := range m.Rows {
			if got.Rows[b] != m.Rows[b] {
				t.Fatalf("user %d bin %d: parallel generation diverges from serial", u, b)
			}
		}
	}
}

func TestNewGeneratedPanics(t *testing.T) {
	ms := testMatrices(3, 1)
	bad := features.NewMatrix(ms[0].BinWidth, 0, ms[0].Bins()*2)
	for name, fn := range map[string]func(){
		"empty": func() { NewGenerated(0, func(int) *features.Matrix { return nil }) },
		"geometry": func() {
			NewGenerated(2, func(u int) *features.Matrix {
				if u == 1 {
					return bad
				}
				return ms[u]
			})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
