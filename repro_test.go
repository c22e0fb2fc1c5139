package repro

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/features"
	"repro/internal/stats"
)

// The experiment tests share one moderate enterprise so the suite
// stays fast; shapes asserted here are the paper's qualitative
// claims, which must hold at this scale too.
var (
	testEntOnce sync.Once
	testEnt     *Enterprise
)

func testEnterprise(t testing.TB) *Enterprise {
	t.Helper()
	testEntOnce.Do(func() {
		ent, err := NewEnterprise(Options{Users: 100, Weeks: 2, Seed: 1})
		if err != nil {
			panic(err)
		}
		ent.Materialize()
		testEnt = ent
	})
	return testEnt
}

func TestNewEnterpriseValidation(t *testing.T) {
	if _, err := NewEnterprise(Options{}); err == nil {
		t.Fatal("empty options accepted")
	}
	if _, err := NewEnterprise(Options{Users: 1, Weeks: 0}); err == nil {
		t.Fatal("zero weeks accepted")
	}
}

func TestEnterpriseAccessors(t *testing.T) {
	e := testEnterprise(t)
	if e.Users() != 100 {
		t.Fatalf("Users = %d", e.Users())
	}
	m := e.Matrix(5)
	if m.Weeks() != 2 {
		t.Fatalf("weeks = %d", m.Weeks())
	}
	// Matrix is cached: same pointer on second call.
	if e.Matrix(5) != m {
		t.Fatal("Matrix not cached")
	}
	train, test := e.TrainTest(features.TCP, 0, 1)
	if len(train) != 100 || len(test) != 100 {
		t.Fatalf("train/test sizes: %d/%d", len(train), len(test))
	}
	if len(train[0]) != 672 || len(test[0]) != 672 {
		t.Fatalf("series lengths: %d/%d", len(train[0]), len(test[0]))
	}
	d, err := e.Distribution(3, features.UDP, 1)
	if err != nil || d.N() != 672 {
		t.Fatalf("Distribution: %v, %v", d, err)
	}
}

func TestAttackSweepShape(t *testing.T) {
	e := testEnterprise(t)
	sweep := e.AttackSweep(features.TCP, 0, 20)
	if len(sweep) != 20 {
		t.Fatalf("sweep length %d", len(sweep))
	}
	if sweep[0] != 1 {
		t.Fatalf("sweep starts at %g", sweep[0])
	}
	for i := 1; i < len(sweep); i++ {
		if sweep[i] <= sweep[i-1] {
			t.Fatalf("sweep not increasing at %d: %v", i, sweep)
		}
	}
	// Top of sweep is the max training value across users.
	var max float64
	for u := 0; u < e.Users(); u++ {
		m := e.Matrix(u)
		lo, hi := m.WeekRange(0)
		for b := lo; b < hi; b++ {
			if v := m.Rows[b][features.TCP]; v > max {
				max = v
			}
		}
	}
	if math.Abs(sweep[len(sweep)-1]-max)/max > 1e-9 {
		t.Fatalf("sweep max %g != population max %g", sweep[len(sweep)-1], max)
	}
}

func TestFig1Shapes(t *testing.T) {
	e := testEnterprise(t)
	res, err := Fig1(e, DefaultExperimentConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Panels) != features.NumFeatures {
		t.Fatalf("%d panels", len(res.Panels))
	}
	var tcpSpread, dnsSpread float64
	for _, p := range res.Panels {
		if len(p.P99) != e.Users() || len(p.P999) != e.Users() {
			t.Fatalf("%s: wrong lengths", p.Feature)
		}
		// Sorted ascending; P999 dominates P99 in distribution (check
		// at the quartiles, pointwise can cross after sorting).
		for i := 1; i < len(p.P99); i++ {
			if p.P99[i] < p.P99[i-1] {
				t.Fatalf("%s: P99 not sorted", p.Feature)
			}
		}
		q := len(p.P99) / 4
		if p.P999[q] < p.P99[q] || p.P999[3*q] < p.P99[3*q] {
			t.Fatalf("%s: P999 below P99 at quartiles", p.Feature)
		}
		switch p.Feature {
		case features.TCP:
			tcpSpread = p.SpreadDecades
		case features.DNS:
			dnsSpread = p.SpreadDecades
		}
	}
	// Fig 1's headline: broad TCP spread, visibly narrower DNS spread.
	if tcpSpread < 1.8 {
		t.Errorf("TCP spread %.2f decades too narrow", tcpSpread)
	}
	if dnsSpread >= tcpSpread {
		t.Errorf("DNS spread %.2f not below TCP %.2f (Fig 1d vs 1a)", dnsSpread, tcpSpread)
	}
	if res.String() == "" {
		t.Error("empty rendering")
	}
}

func TestFig2Shapes(t *testing.T) {
	e := testEnterprise(t)
	res, err := Fig2(e, DefaultExperimentConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TCP99) != e.Users() || len(res.UDP99) != e.Users() {
		t.Fatal("wrong point count")
	}
	// Correlated but far from identical (Fig 2's scatter).
	if res.RankCorrelation <= 0.1 || res.RankCorrelation >= 0.95 {
		t.Errorf("rank correlation %.2f outside (0.1, 0.95)", res.RankCorrelation)
	}
	if res.String() == "" {
		t.Error("empty rendering")
	}
}

func TestTable2Shapes(t *testing.T) {
	e := testEnterprise(t)
	res, err := Table2(e, DefaultExperimentConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, list := range [][]int{res.FullUDP, res.FullTCP, res.PartialUDP, res.PartialTCP} {
		if len(list) != 10 {
			t.Fatalf("best list length %d", len(list))
		}
	}
	// The paper's point: the lists differ across features (overlap
	// well below 10).
	if res.FullOverlap > 8 {
		t.Errorf("full-diversity best-user overlap %d/10; want partial overlap", res.FullOverlap)
	}
	if res.PartialOverlap > 8 {
		t.Errorf("8-partial best-user overlap %d/10; want partial overlap", res.PartialOverlap)
	}
	if res.String() == "" {
		t.Error("empty rendering")
	}
}

func TestFig3aShapes(t *testing.T) {
	e := testEnterprise(t)
	res, err := Fig3a(e, DefaultExperimentConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Boxplots) != 3 {
		t.Fatalf("%d boxplots", len(res.Boxplots))
	}
	homog, div, part := res.Boxplots[0], res.Boxplots[1], res.Boxplots[2]
	// Diversity's median utility beats homogeneous (Fig 3a headline).
	if div.Median <= homog.Median {
		t.Errorf("diversity median %.3f not above homogeneous %.3f", div.Median, homog.Median)
	}
	// 8-partial close to full diversity: within half the
	// homogeneous-diversity gap.
	gap := div.Median - homog.Median
	if part.Median < homog.Median-0.01 {
		t.Errorf("8-partial median %.3f below homogeneous %.3f", part.Median, homog.Median)
	}
	if div.Median-part.Median > gap+0.02 {
		t.Errorf("8-partial median %.3f too far from diversity %.3f", part.Median, div.Median)
	}
	if res.String() == "" {
		t.Error("empty rendering")
	}
}

func TestFig3bShapes(t *testing.T) {
	e := testEnterprise(t)
	res, err := Fig3b(e, DefaultExperimentConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.W) != 9 || len(res.Mean) != 3 {
		t.Fatalf("shape: %d weights, %d policies", len(res.W), len(res.Mean))
	}
	gapLo, gapHi := res.Gap()
	// Fig 3(b) headline: the diversity advantage grows with w.
	if gapHi <= gapLo {
		t.Errorf("gap does not grow with w: %.4f -> %.4f", gapLo, gapHi)
	}
	// Diversity dominates homogeneous at every w.
	for k := range res.W {
		if res.Mean[1][k] < res.Mean[0][k]-1e-9 {
			t.Errorf("diversity below homogeneous at w=%.1f", res.W[k])
		}
	}
	if res.String() == "" {
		t.Error("empty rendering")
	}
}

func TestTable3Shapes(t *testing.T) {
	e := testEnterprise(t)
	res, err := Table3(e, DefaultExperimentConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Alarms) != 2 {
		t.Fatalf("%d heuristic rows", len(res.Alarms))
	}
	// Percentile row: homogeneous sends the most false alarms;
	// diversity policies reduce the console load (Table 3's claim).
	pct := res.Alarms[0]
	if pct[1] >= pct[0] {
		t.Errorf("full diversity alarms %d not below homogeneous %d", pct[1], pct[0])
	}
	if pct[2] >= pct[0] {
		t.Errorf("8-partial alarms %d not below homogeneous %d", pct[2], pct[0])
	}
	if res.String() == "" {
		t.Error("empty rendering")
	}
}

func TestFig4aShapes(t *testing.T) {
	e := testEnterprise(t)
	res, err := Fig4a(e, DefaultExperimentConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fraction) != 3 || len(res.Fraction[0]) != len(res.Sizes) {
		t.Fatal("shape mismatch")
	}
	last := len(res.Sizes) - 1
	for p, series := range res.Fraction {
		// Monotone non-decreasing in attack size (within tolerance:
		// the day-sampling is deterministic, so this is exact).
		for k := 1; k < len(series); k++ {
			if series[k] < series[k-1]-1e-9 {
				t.Errorf("policy %d: detection drops at size %g", p, res.Sizes[k])
			}
		}
		// Everyone detects the largest attack ("clearly exceeds
		// normal behavior").
		if series[last] < 0.95 {
			t.Errorf("policy %d: max-size detection %.2f", p, series[last])
		}
	}
	// Stealthy range (sizes <= 100): diversity far above homogeneous.
	var stealthGapSeen bool
	for k, s := range res.Sizes {
		if s > 100 {
			break
		}
		if res.Fraction[1][k] > res.Fraction[0][k]+0.15 {
			stealthGapSeen = true
		}
	}
	if !stealthGapSeen {
		t.Error("no stealth-detection advantage for diversity (Fig 4a)")
	}
	if res.String() == "" {
		t.Error("empty rendering")
	}
}

func TestFig4bShapes(t *testing.T) {
	e := testEnterprise(t)
	res, err := Fig4b(e, DefaultExperimentConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Boxplots) != 3 {
		t.Fatalf("%d boxplots", len(res.Boxplots))
	}
	// Diversity slashes the resourceful attacker's hidden traffic
	// (paper: homogeneous median ~3x the diversity median).
	if r := res.MedianRatio(); r < 1.5 {
		t.Errorf("homogeneous/diversity hidden-traffic ratio %.2f, want > 1.5", r)
	}
	// 8-partial also restricts the attacker vs homogeneous.
	if res.Boxplots[2].Median >= res.Boxplots[0].Median {
		t.Errorf("8-partial median %.1f not below homogeneous %.1f",
			res.Boxplots[2].Median, res.Boxplots[0].Median)
	}
	if res.String() == "" {
		t.Error("empty rendering")
	}
}

func TestFig5aShapes(t *testing.T) {
	e := testEnterprise(t)
	res, err := Fig5a(e, DefaultExperimentConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Points {
		if len(res.Points[i]) != e.Users() {
			t.Fatalf("panel %d: %d points", i, len(res.Points[i]))
		}
		for _, p := range res.Points[i] {
			if p.FP < 0 || p.FP > 1 || p.DetectionRate < 0 || p.DetectionRate > 1 {
				t.Fatalf("point out of range: %+v", p)
			}
		}
	}
	_, detHomog := res.Summary(0)
	fpQDiv, detDiv := res.Summary(1)
	// Diversity pins the bulk FP near the 1% target...
	if fpQDiv[1] > 0.04 {
		t.Errorf("diversity median FP %.3f far from 1%% target", fpQDiv[1])
	}
	// ...and detects the Storm bot better than the monoculture.
	if detDiv <= detHomog {
		t.Errorf("diversity median detection %.2f not above homogeneous %.2f", detDiv, detHomog)
	}
	if res.String() == "" {
		t.Error("empty rendering")
	}
}

func TestFig5bShapes(t *testing.T) {
	e := testEnterprise(t)
	res, err := Fig5b(e, DefaultExperimentConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, detDiv := res.Summary(0)
	fpQPart, detPart := res.Summary(1)
	// 8-partial detection close to full diversity (within 0.15).
	if math.Abs(detDiv-detPart) > 0.15 {
		t.Errorf("8-partial detection %.2f far from diversity %.2f", detPart, detDiv)
	}
	// 8-partial FP bounded to a small range, like diversity.
	if fpQPart[3] > 0.1 {
		t.Errorf("8-partial q98 FP %.3f too high", fpQPart[3])
	}
	if res.String() == "" {
		t.Error("empty rendering")
	}
}

func TestPoliciesOrder(t *testing.T) {
	pols := Policies(nil)
	if len(pols) != 3 {
		t.Fatalf("%d policies", len(pols))
	}
	names := []string{"homogeneous", "full-diversity", "8-partial"}
	for i, p := range pols {
		if p.Grouping.Name() != names[i] {
			t.Fatalf("policy %d grouping %q, want %q", i, p.Grouping.Name(), names[i])
		}
	}
}

func TestGeomSpace(t *testing.T) {
	v := geomSpace(1, 100, 3)
	want := []float64{1, 10, 100}
	for i := range want {
		if math.Abs(v[i]-want[i]) > 1e-9 {
			t.Fatalf("geomSpace = %v", v)
		}
	}
	if one := geomSpace(1, 50, 1); len(one) != 1 || one[0] != 50 {
		t.Fatalf("geomSpace n=1: %v", one)
	}
}

// The Enterprise accessors below are what the tests, benchmarks and
// examples read a population through; the commands reach the same
// workspace memos through the experiment runners.

// SaveSnapshot seals the enterprise's store under dir with a
// one-range local build and returns the sealed file's path. A later
// enterprise with the same Options (and any other process on the host)
// then maps it back via the snapshot path instead of regenerating.
func (e *Enterprise) SaveSnapshot(dir string) (string, error) {
	ws, err := analysis.MaterializeSharded(context.Background(), dir, e.key, 0, e.fillSeries)
	if err != nil {
		return "", err
	}
	if err := ws.Close(); err != nil {
		return "", err
	}
	return e.key.Path(dir), nil
}

// TrainTest extracts every user's train-week and test-week series of
// one feature, the input shape of the §6.1 methodology. The returned
// slices are fresh copies the caller may modify; internal runners use
// the workspace's shared columns directly.
func (e *Enterprise) TrainTest(f features.Feature, trainWeek, testWeek int) (train, test [][]float64) {
	ws := e.workspace()
	return copyColumns(ws.Raw(f, trainWeek)), copyColumns(ws.Raw(f, testWeek))
}

func copyColumns(cols [][]float64) [][]float64 {
	out := make([][]float64, len(cols))
	for u := range cols {
		out[u] = append([]float64(nil), cols[u]...)
	}
	return out
}

// AttackSweep builds the paper's attack-size sweep for one feature:
// n geometrically spaced sizes from 1 up to the maximum feature value
// any user exhibits in the training week ("the largest attack for a
// given feature is determined by finding the user whose own traffic
// hits the maximum seen value", §6.1). Sweeps are memoized per
// (feature, week, n); the returned slice is a fresh copy.
func (e *Enterprise) AttackSweep(f features.Feature, trainWeek, n int) []float64 {
	return append([]float64(nil), e.workspace().Sweep(f, trainWeek, n)...)
}

// geomSpace returns n geometrically spaced values over [lo, hi],
// guarding degenerate bounds (lo <= 0, hi <= lo, NaN/Inf) so attack
// sweeps can never contain NaN or Inf magnitudes.
func geomSpace(lo, hi float64, n int) []float64 {
	return analysis.GeomSpace(lo, hi, n)
}

// Distribution returns one user's memoized empirical distribution of
// a feature over a week. The distribution is shared with the
// analysis workspace (Empirical is immutable, so sharing is safe).
func (e *Enterprise) Distribution(u int, f features.Feature, week int) (*stats.Empirical, error) {
	return e.workspace().Dists(f, week)[u], nil
}
