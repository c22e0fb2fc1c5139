package stats

import (
	"math"
	"sort"
	"testing"

	"repro/internal/xrand"
)

// The *Sorted fast-path functions must agree exactly with the
// Empirical methods they bypass — they are the same algorithm on the
// same data, minus the copy.
func TestSortedFastPathMatchesEmpirical(t *testing.T) {
	samples := []float64{5, 1, 9, 2, 2, 7, 3.5, 0, 11, 6}
	e := MustEmpirical(samples)
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)

	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.99, 0.999, 1} {
		want := e.MustQuantile(q)
		got, err := QuantileSorted(sorted, q)
		if err != nil || got != want {
			t.Fatalf("QuantileSorted(%g) = %g, %v; want %g", q, got, err, want)
		}
	}
}

// TestSortedFastPathRandomizedSweep is the property-based counterpart
// of the hand-picked cases above: across many random sample sets —
// mixed continuous and integer-valued (ties!), spanning decades like
// real feature columns — the *Sorted fast-path functions must agree
// bit-for-bit with the Empirical methods on random query points.
// Seeds are fixed so a failure reproduces exactly.
func TestSortedFastPathRandomizedSweep(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 0xbeef, 0xf1f0} {
		r := xrand.New(seed)
		for trial := 0; trial < 40; trial++ {
			n := 1 + r.Intn(300)
			samples := make([]float64, n)
			for i := range samples {
				switch r.Intn(3) {
				case 0: // integer counters with heavy ties
					samples[i] = float64(r.Intn(20))
				case 1: // continuous body
					samples[i] = 100 * r.Float64()
				default: // heavy tail spanning decades
					samples[i] = math.Exp(8 * r.Float64())
				}
			}
			e := MustEmpirical(samples)
			sorted := append([]float64(nil), samples...)
			sort.Float64s(sorted)

			for k := 0; k < 25; k++ {
				q := r.Float64()
				want := e.MustQuantile(q)
				got, err := QuantileSorted(sorted, q)
				if err != nil || got != want {
					t.Fatalf("seed %#x trial %d: QuantileSorted(%v) = %v, %v; want %v",
						seed, trial, q, got, err, want)
				}
			}
			// The zero-copy constructor over the same sorted data must
			// answer identically to the copy-and-sort constructor.
			ze, err := NewEmpiricalFromSorted(sorted)
			if err != nil {
				t.Fatalf("seed %#x trial %d: %v", seed, trial, err)
			}
			for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
				if ze.MustQuantile(q) != e.MustQuantile(q) {
					t.Fatalf("seed %#x trial %d: zero-copy quantile(%v) mismatch", seed, trial, q)
				}
			}
		}
	}
}

func TestSortedFastPathErrors(t *testing.T) {
	if _, err := QuantileSorted(nil, 0.5); err == nil {
		t.Fatal("empty slice accepted")
	}
	if _, err := QuantileSorted([]float64{1, 2}, 1.5); err == nil {
		t.Fatal("out-of-range quantile accepted")
	}
}

func TestNewEmpiricalFromSorted(t *testing.T) {
	sorted := []float64{1, 2, 2, 5}
	e, err := NewEmpiricalFromSorted(sorted)
	if err != nil {
		t.Fatal(err)
	}
	// Zero-copy adoption: the distribution reads the caller's slice.
	if e.N() != 4 || e.At(3) != 5 {
		t.Fatalf("adopted wrong samples: n=%d", e.N())
	}
	if _, err := NewEmpiricalFromSorted([]float64{2, 1}); err == nil {
		t.Fatal("unsorted input accepted")
	}
	if _, err := NewEmpiricalFromSorted([]float64{1, math.NaN()}); err == nil {
		t.Fatal("NaN input accepted")
	}
	if _, err := NewEmpiricalFromSorted(nil); err == nil {
		t.Fatal("empty input accepted")
	}
}
