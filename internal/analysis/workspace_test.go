package analysis

import (
	"context"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/snapshot"
	"repro/internal/stats"
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

// generated builds the workspace over ms: Generate fills its records
// from a copy of their rows.
func generated(t testing.TB, ms []*features.Matrix) *Workspace {
	t.Helper()
	m0 := ms[0]
	key := snapshot.Key{Users: len(ms), Weeks: m0.Weeks(), BinWidth: m0.BinWidth, StartMicros: m0.StartMicros}
	ws, err := Generate(key, func(u int, rows [][features.NumFeatures]float64) {
		copy(rows, ms[u].Rows)
	})
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

func TestWorkspaceColumnsMatchMatrix(t *testing.T) {
	ms := testMatrices(5, 2)
	ws := generated(t, ms)
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
	ws := generated(t, ms)
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
	ws := generated(t, ms)
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
	ws := generated(t, testMatrices(6, 1))
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
	ws := generated(t, testMatrices(6, 1))
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
	ws := generated(t, testMatrices(2, 1))
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

// TestFrontierAssignmentMatchesConfigure pins the folded Assignment
// of every frontier-scoring heuristic to a plain core.Configure over
// the same distributions.
func TestFrontierAssignmentMatchesConfigure(t *testing.T) {
	ws := generated(t, testMatrices(9, 2))
	attack := GeomSpace(1, 500, 6)
	dists := ws.Dists(features.TCP, 0)
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
				t.Fatalf("%s: user %d folded threshold %v != plain Configure %v",
					pol.Name(), i, asn.Thresholds[i], ref.Thresholds[i])
			}
		}
	}
}

// TestDaySortedMatchesRaw checks the per-day sorted columns are exact
// sorted permutations of the raw day slices and are memoized.
func TestDaySortedMatchesRaw(t *testing.T) {
	ws := generated(t, testMatrices(4, 2))
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

// TestScoreOverlayMatchesEvaluate pins Score under an additive overlay
// against a window-by-window core.Evaluate: identical confusion counts
// for every user and threshold, with every job of one pass scored over
// the same extracted column. Overlays that are short, negative or not
// finite are rejected before the pass.
func TestScoreOverlayMatchesEvaluate(t *testing.T) {
	ws := generated(t, testMatrices(6, 2))
	bins := ws.BinsPerWeek()
	overlay := make([]float64, bins)
	for b := range overlay {
		if b%3 == 0 {
			overlay[b] = float64(5 + b%17)
		}
	}
	thresholds := []float64{0, 10, 33.5, 90, 1e9}
	var jobs []Scoring
	for _, thr := range thresholds {
		asn := &core.Assignment{Thresholds: make([]float64, ws.Users())}
		for u := range asn.Thresholds {
			asn.Thresholds[u] = thr
		}
		jobs = append(jobs, Scoring{Assignment: asn, Overlay: overlay})
	}
	res, err := ws.Score(features.TCP, 1, jobs, 0)
	if err != nil {
		t.Fatal(err)
	}
	raw := ws.Raw(features.TCP, 1)
	for u := range raw {
		for i, thr := range thresholds {
			want, err := core.Evaluate(raw[u], overlay, thr)
			if err != nil {
				t.Fatal(err)
			}
			if got := res[i].Points[u].Confusion; got != want {
				t.Fatalf("user %d thr %g: Score confusion %+v != Evaluate %+v", u, thr, got, want)
			}
		}
	}
	asn := jobs[0].Assignment
	for name, bad := range map[string][]float64{
		"short":    overlay[:3],
		"empty":    {},
		"negative": append([]float64{-1}, overlay[1:]...),
		"NaN":      append([]float64{math.NaN()}, overlay[1:]...),
		"+Inf":     append(append([]float64(nil), overlay[:bins-1]...), math.Inf(1)),
	} {
		// A bad job rejects the whole pass, even behind a good one.
		if _, err := ws.Score(features.TCP, 1, []Scoring{{Assignment: asn}, {Assignment: asn, Overlay: bad}}, 0); err == nil {
			t.Fatalf("%s overlay accepted", name)
		}
		if _, err := ws.EvaluateSharded(features.TCP, 1, asn, bad, 0); err == nil {
			t.Fatalf("%s overlay accepted by EvaluateSharded", name)
		}
	}
	if _, err := ws.Score(features.TCP, 1, []Scoring{{}}, 0); err == nil {
		t.Fatal("job without an assignment accepted")
	}
	short := &core.Assignment{Thresholds: make([]float64, ws.Users()-1)}
	if _, err := ws.Score(features.TCP, 1, []Scoring{{Assignment: short}}, 0); err == nil {
		t.Fatal("assignment short of the population accepted")
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
		ws := generated(t, ms)
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
		ref := generated(t, ms) // serial reference
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

// TestGenerateMatchesLoad pins the heap store to the mapped one: a
// workspace Generate fills from real trace generators serves exactly
// the views Load serves from the sealed store of the same key.
func TestGenerateMatchesLoad(t *testing.T) {
	pop, key := popAndKey(t, 16, 2, 21, 15*time.Minute)
	gen := func(u int, rows [][features.NumFeatures]float64) {
		pop.Users[u].FillSeries(rows)
	}
	heap, err := Generate(key, gen)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := MaterializeSharded(context.Background(), t.TempDir(), key, 0, gen)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	requireEqualWorkspaces(t, heap, mapped)
}

// TestGenerateParallelMatchesSerial checks that Generate's fill on the
// worker pool adopts rows equal to serial per-user generation from real
// trace generators. Under -race it guards the parallel fill.
func TestGenerateParallelMatchesSerial(t *testing.T) {
	pop, key := popAndKey(t, 16, 2, 21, 15*time.Minute)
	heap, err := Generate(key, func(u int, rows [][features.NumFeatures]float64) {
		pop.Users[u].FillSeries(rows)
	})
	if err != nil {
		t.Fatal(err)
	}
	for u, user := range pop.Users {
		if !reflect.DeepEqual(heap.Matrices()[u].Rows, user.Series().Rows) {
			t.Fatalf("user %d: parallel generation diverges from serial", u)
		}
	}
}

// Weeks returns the number of complete weeks covered.
func (w *Workspace) Weeks() int { return w.weeks }

// Warm builds every (feature, week) columnar block.
func (w *Workspace) Warm() {
	for week := 0; week < w.weeks; week++ {
		for _, f := range features.All() {
			w.Sorted(f, week)
		}
	}
}
