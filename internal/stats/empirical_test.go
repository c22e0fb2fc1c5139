package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestNewEmpiricalErrors(t *testing.T) {
	if _, err := NewEmpirical(nil); err != ErrNoSamples {
		t.Fatalf("empty input: got %v, want ErrNoSamples", err)
	}
	if _, err := NewEmpirical([]float64{1, math.NaN()}); err == nil {
		t.Fatal("NaN sample accepted")
	}
}

func TestEmpiricalDoesNotAliasInput(t *testing.T) {
	in := []float64{3, 1, 2}
	e := MustEmpirical(in)
	in[0] = 100
	if e.Max() != 3 {
		t.Fatalf("distribution aliased caller slice: max=%g", e.Max())
	}
}

func TestQuantileKnownValues(t *testing.T) {
	e := MustEmpirical([]float64{1, 2, 3, 4, 5})
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	}
	for _, c := range cases {
		got := e.MustQuantile(c.q)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
}

func TestQuantileSingleSample(t *testing.T) {
	e := MustEmpirical([]float64{7})
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := e.MustQuantile(q); got != 7 {
			t.Errorf("Quantile(%g) = %g, want 7", q, got)
		}
	}
}

func TestQuantileRangeErrors(t *testing.T) {
	e := MustEmpirical([]float64{1, 2})
	for _, q := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := e.Quantile(q); err == nil {
			t.Errorf("Quantile(%g) did not error", q)
		}
	}
}

func TestQuantileMonotonic(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := r.Intn(200) + 2
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = r.LogNormal(0, 2)
		}
		e := MustEmpirical(samples)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.01 {
			v := e.MustQuantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCDFAndTailProb(t *testing.T) {
	e := MustEmpirical([]float64{1, 2, 2, 3})
	cases := []struct{ x, cdf float64 }{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {4, 1},
	}
	for _, c := range cases {
		if got := e.CDF(c.x); math.Abs(got-c.cdf) > 1e-12 {
			t.Errorf("CDF(%g) = %g, want %g", c.x, got, c.cdf)
		}
		if got := e.TailProb(c.x); math.Abs(got-(1-c.cdf)) > 1e-12 {
			t.Errorf("TailProb(%g) = %g, want %g", c.x, got, 1-c.cdf)
		}
	}
}

func TestTailProbMatchesFalsePositiveDefinition(t *testing.T) {
	// The FP rate of a threshold detector with threshold = 99th
	// percentile should be at most 1% on the training data itself —
	// the paper's stated motivation for the 99th-percentile heuristic.
	r := xrand.New(5)
	samples := make([]float64, 10000)
	for i := range samples {
		samples[i] = r.LogNormal(3, 1)
	}
	e := MustEmpirical(samples)
	thr := e.MustQuantile(0.99)
	if fp := e.TailProb(thr); fp > 0.0101 {
		t.Fatalf("FP at own 99th percentile = %g, want <= ~0.01", fp)
	}
}

func TestInverseCDF(t *testing.T) {
	e := MustEmpirical([]float64{10, 20, 30, 40})
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 10}, {0.25, 10}, {0.26, 20}, {0.5, 20}, {0.75, 30}, {0.9, 40}, {1, 40},
	}
	for _, c := range cases {
		got, err := e.InverseCDF(c.p)
		if err != nil {
			t.Fatalf("InverseCDF(%g): %v", c.p, err)
		}
		if got != c.want {
			t.Errorf("InverseCDF(%g) = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestInverseCDFRoundTrip(t *testing.T) {
	// CDF(InverseCDF(p)) >= p for all p — the guarantee the
	// resourceful attacker relies on.
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := r.Intn(100) + 1
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = float64(r.Intn(50))
		}
		e := MustEmpirical(samples)
		for _, p := range []float64{0.01, 0.1, 0.5, 0.9, 0.99} {
			v, err := e.InverseCDF(p)
			if err != nil || e.CDF(v) < p-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMergePreservesMass(t *testing.T) {
	a := MustEmpirical([]float64{1, 5, 9})
	b := MustEmpirical([]float64{2, 2})
	m := a.Merge(b)
	if m.N() != 5 {
		t.Fatalf("merged N = %d, want 5", m.N())
	}
	want := []float64{1, 2, 2, 5, 9}
	for i, v := range m.sorted {
		if v != want[i] {
			t.Fatalf("merged samples = %v, want %v", m.sorted, want)
		}
	}
	// Originals untouched.
	if a.N() != 3 || b.N() != 2 {
		t.Fatal("merge mutated inputs")
	}
}

func TestMergeEmpiricals(t *testing.T) {
	a := MustEmpirical([]float64{3})
	m, err := MergeEmpiricals([]*Empirical{nil, a, nil})
	if err != nil || m.N() != 1 || m.Min() != 3 {
		t.Fatalf("MergeEmpiricals = %v, %v", m, err)
	}
	if _, err := MergeEmpiricals(nil); err != ErrNoSamples {
		t.Fatalf("MergeEmpiricals(nil) err = %v", err)
	}
}

func TestHomogeneousThresholdBiasedTowardHeavyUsers(t *testing.T) {
	// Reproduces the core qualitative claim of §6.2: merging a light
	// user with a heavy user and taking the global 99th percentile
	// yields a threshold far above the light user's own tail.
	r := xrand.New(42)
	light := make([]float64, 5000)
	heavy := make([]float64, 5000)
	for i := range light {
		light[i] = r.LogNormal(1, 0.5) // median ~e
		heavy[i] = r.LogNormal(6, 0.5) // median ~400
	}
	le, he := MustEmpirical(light), MustEmpirical(heavy)
	global := le.Merge(he)
	globalThr := global.MustQuantile(0.99)
	lightThr := le.MustQuantile(0.99)
	if globalThr < 10*lightThr {
		t.Fatalf("global threshold %g not dominated by heavy user (light thr %g)", globalThr, lightThr)
	}
	// The light user's FP rate under the global threshold collapses
	// to ~0 (it never exceeds), i.e. detection is "miserable".
	if fp := le.TailProb(globalThr); fp > 0.001 {
		t.Fatalf("light user FP under global threshold = %g, want ~0", fp)
	}
}

func TestShiftedTailProbMonotoneInShift(t *testing.T) {
	// P(g + b > T) must be non-decreasing in b: adding attack traffic
	// can only increase the alarm probability. This is the invariant
	// behind Fig 4(a)'s monotone detection curves.
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		samples := make([]float64, 200)
		for i := range samples {
			samples[i] = r.Exponential(50)
		}
		e := MustEmpirical(samples)
		thr := e.MustQuantile(0.99)
		prev := -1.0
		for b := 0.0; b < 200; b += 10 {
			attacked := make([]float64, len(samples))
			for i, g := range samples {
				attacked[i] = g + b
			}
			p := MustEmpirical(attacked).TailProb(thr)
			if p < prev-1e-12 {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyEmpiricalQueries(t *testing.T) {
	var e Empirical
	if e.N() != 0 || e.Min() != 0 || e.Max() != 0 || e.Mean() != 0 || e.StdDev() != 0 {
		t.Fatal("zero-value Empirical not inert")
	}
	if e.CDF(5) != 0 {
		t.Fatal("zero-value CDF != 0")
	}
	if _, err := e.Quantile(0.5); err != ErrNoSamples {
		t.Fatal("zero-value Quantile did not return ErrNoSamples")
	}
	if _, err := e.InverseCDF(0.5); err != ErrNoSamples {
		t.Fatal("zero-value InverseCDF did not return ErrNoSamples")
	}
}

func TestMeanStdDevAgainstKnown(t *testing.T) {
	e := MustEmpirical([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if got := e.Mean(); got != 5 {
		t.Fatalf("Mean = %g, want 5", got)
	}
	want := math.Sqrt(32.0 / 7.0)
	if got := e.StdDev(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("StdDev = %g, want %g", got, want)
	}
}

// TestSortedValidationTexts pins the sorted-column contract of
// AdoptSorted and Compressed.AddSorted: the first failing index and
// the error text for a NaN at the head, a NaN mid-column and an
// out-of-order sample, and ±0 ties accepted as sorted.
func TestSortedValidationTexts(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		name string
		col  []float64
		at   int
		err  string
	}{
		{"NaN at index 0", []float64{math.NaN(), 1, 2}, 0, "stats: sample 0 is NaN"},
		{"NaN mid-column", []float64{1, 2, math.NaN(), 3}, 2, "stats: sample 2 is NaN"},
		{"unsorted", []float64{1, 3, 2, 4}, 2, "stats: samples not sorted at index 2 (2 < 3)"},
		{"unsorted before a NaN", []float64{5, 4, math.NaN()}, 1, "stats: samples not sorted at index 1 (4 < 5)"},
		{"-Inf after a value", []float64{0, math.Inf(-1)}, 1, "stats: samples not sorted at index 1 (-Inf < 0)"},
		{"±0 ties", []float64{negZero, 0, negZero, 0, 1}, -1, ""},
		{"±Inf ends", []float64{math.Inf(-1), 0, math.Inf(1)}, -1, ""},
		{"one sample", []float64{7}, -1, ""},
	} {
		if got := UnsortedAt(tc.col); got != tc.at {
			t.Fatalf("%s: UnsortedAt = %d, want %d", tc.name, got, tc.at)
		}
		var e Empirical
		err := e.AdoptSorted(tc.col)
		var c Compressed
		cerr := c.AddSorted(tc.col)
		if tc.err == "" {
			if err != nil || cerr != nil || e.N() != len(tc.col) || c.N() != int64(len(tc.col)) {
				t.Fatalf("%s: rejected: AdoptSorted %v, AddSorted %v", tc.name, err, cerr)
			}
			continue
		}
		if err == nil || err.Error() != tc.err {
			t.Fatalf("%s: AdoptSorted err = %v, want %q", tc.name, err, tc.err)
		}
		if cerr == nil || cerr.Error() != tc.err {
			t.Fatalf("%s: AddSorted err = %v, want %q", tc.name, cerr, tc.err)
		}
		if e.N() != 0 || c.N() != 0 {
			t.Fatalf("%s: a rejected column was adopted", tc.name)
		}
	}
	if err := new(Empirical).AdoptSorted(nil); err != ErrNoSamples {
		t.Fatalf("empty column: err = %v", err)
	}
}

// BenchmarkAdoptSorted times the validation pass of one user-week
// column (672 sorted window counts).
func BenchmarkAdoptSorted(b *testing.B) {
	r := xrand.New(3)
	col := make([]float64, 672)
	for i := range col {
		col[i] = math.Floor(r.LogNormal(3, 1))
	}
	sort.Float64s(col)
	var e Empirical
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.AdoptSorted(col); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuantile(b *testing.B) {
	r := xrand.New(1)
	vals := make([]float64, 10000)
	for i := range vals {
		vals[i] = r.LogNormal(3, 2)
	}
	e := MustEmpirical(vals)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.MustQuantile(0.99)
	}
}
