package core

import (
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/xrand"
)

// boundCase draws a frontier input for the bound tests: a column of
// 1 to 60 samples (one in five a single sample), integer-valued with
// heavy ties or continuous, and 1 to 8 attack magnitudes in random
// order, some duplicated, some zero.
func boundCase(r *xrand.Source) (*stats.Empirical, []float64) {
	n := 1 + int(r.Uint64()%60)
	if r.Uint64()%5 == 0 {
		n = 1
	}
	ties := r.Uint64()%2 == 0
	v := make([]float64, n)
	for i := range v {
		if ties {
			v[i] = float64(r.Uint64() % 6)
		} else {
			v[i] = r.LogNormal(2, 1.5)
		}
	}
	attack := make([]float64, 1+int(r.Uint64()%8))
	for i := range attack {
		switch r.Uint64() % 4 {
		case 0:
			attack[i] = 0
		case 1:
			attack[i] = attack[int(r.Uint64()%uint64(i+1))] // a duplicate (or itself)
		default:
			attack[i] = math.Floor(math.Exp(r.Float64() * 6))
		}
	}
	return stats.MustEmpirical(v), attack
}

// TestFrontierBoundMatchesFullSweep pins the frontier scorers' bound:
// at every candidate it is at least the score of that candidate and of
// every later one, and Maximize under it returns exactly the full
// sweep's threshold — over the singleton frontier and the compressed
// one merged groups sweep — for utility at w = 0, 0.4 and 1 and for
// F-measure. A bound below any later score fails the first check; a
// stop rule that ends a sweep early fails the second.
func TestFrontierBoundMatchesFullSweep(t *testing.T) {
	r := xrand.New(0xb0d)
	scorers := []FrontierScorer{UtilityOptimal{W: 0}, UtilityOptimal{W: 0.4}, UtilityOptimal{W: 1}, FMeasureOptimal{}}
	var visited, total int
	for trial := 0; trial < 500; trial++ {
		train, attack := boundCase(r)
		single, err := stats.NewFrontier(train, attack)
		if err != nil {
			t.Fatal(err)
		}
		var acc stats.Compressed
		acc.AddEmpiricals([]*stats.Empirical{train})
		merged, err := stats.NewFrontierCompressed(&acc, attack)
		if err != nil {
			t.Fatal(err)
		}
		var fps, fns []float64
		single.Visit(func(_, fp, fn float64) { fps, fns = append(fps, fp), append(fns, fn) })
		for _, h := range scorers {
			later := math.Inf(-1)
			for i := len(fps) - 1; i >= 0; i-- {
				later = max(later, h.Score(fps[i], fns[i]))
				if b := h.bound(fns[i]); !(later <= b) {
					t.Fatalf("trial %d %s: candidate %d: bound %v below a score %v from it on", trial, h.Name(), i, b, later)
				}
			}
			for name, fr := range map[string]*stats.Frontier{"singleton": single, "merged": merged} {
				full, bounded := fr.Maximize(h.Score, nil), fr.Maximize(h.Score, h.bound)
				if math.Float64bits(full) != math.Float64bits(bounded) {
					t.Fatalf("trial %d %s %s: bounded Maximize %v != full sweep %v (n=%d, attack %v)",
						trial, h.Name(), name, bounded, full, train.N(), attack)
				}
			}
			want := single.Maximize(h.Score, nil)
			if got, err := h.Threshold(train, attack); err != nil || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d %s: Threshold = %v, %v; full sweep %v", trial, h.Name(), got, err, want)
			}
			if h == (UtilityOptimal{W: 0.4}) {
				total += len(fps)
				single.Maximize(h.Score, func(fn float64) float64 {
					visited++
					return h.bound(fn)
				})
			}
		}
	}
	if visited >= total {
		t.Fatalf("utility(w=0.4) sweeps visited %d of %d candidates: the bound never stopped one early", visited, total)
	}
}
