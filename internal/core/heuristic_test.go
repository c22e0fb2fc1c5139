package core

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/stats"
	"repro/internal/xrand"
)

// optimizeOverCandidates is the pre-frontier brute-force reference,
// kept verbatim: it scans candidate thresholds — every training
// sample and every coarse attack-shifted quantile — through a dedup
// map, a sort, and 1+|attack| binary searches per candidate. The
// frontier engine must reproduce it bit for bit (same candidate set,
// same fp/fn arithmetic, same tie-breaking); the property tests below
// pin that.
func optimizeOverCandidates(train *stats.Empirical, attack []float64, score func(fp, fn float64) float64) (float64, error) {
	if train == nil || train.N() == 0 {
		return 0, stats.ErrNoSamples
	}
	if len(attack) == 0 {
		return 0, fmt.Errorf("core: objective-optimizing heuristic requires attack magnitudes")
	}
	candSet := make(map[float64]struct{}, train.N()*2)
	for i := 0; i < train.N(); i++ {
		candSet[train.At(i)] = struct{}{}
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		base := train.MustQuantile(q)
		for _, b := range attack {
			candSet[base+b] = struct{}{}
		}
	}
	cands := make([]float64, 0, len(candSet))
	for c := range candSet {
		cands = append(cands, c)
	}
	sort.Float64s(cands)

	bestT, bestScore := cands[0], -1.0
	for _, t := range cands {
		fp := train.TailProb(t)
		var fn float64
		for _, b := range attack {
			fn += train.CDF(t - b) // P(g + b <= t) = P(g <= t - b)
		}
		fn /= float64(len(attack))
		if s := score(fp, fn); s > bestScore+1e-15 {
			bestT, bestScore = t, s
		}
	}
	return bestT, nil
}

// randomTrainAttack generates one randomized scenario: a training
// distribution mixing continuous and heavily duplicated integer
// samples (real feature columns are counts, so candidate dedup must
// be exercised), and an attack set spanning magnitudes from inside
// the benign range to far beyond it.
func randomTrainAttack(r *xrand.Source) (*stats.Empirical, []float64) {
	n := 20 + int(r.Uint64()%400)
	v := make([]float64, n)
	for i := range v {
		x := r.LogNormal(2+2*r.Float64(), 0.3+1.5*r.Float64())
		if r.Uint64()%2 == 0 {
			x = math.Floor(x) // force duplicate candidate values
		}
		v[i] = x
	}
	k := 1 + int(r.Uint64()%30)
	attack := make([]float64, k)
	for i := range attack {
		attack[i] = math.Exp(r.Float64() * 12) // 1 .. ~160k
		if r.Uint64()%4 == 0 {
			attack[i] = math.Floor(attack[i])
		}
	}
	return stats.MustEmpirical(v), attack
}

// TestFrontierThresholdsMatchBruteForce pins the frontier-based
// utility and F-measure thresholds bit-identical to the brute-force
// reference across random distributions × attack sets × weights.
func TestFrontierThresholdsMatchBruteForce(t *testing.T) {
	r := xrand.New(0xf407)
	for trial := 0; trial < 300; trial++ {
		tr, attack := randomTrainAttack(r)
		w := r.Float64()
		u := UtilityOptimal{W: w}
		got, err := u.Threshold(tr, attack)
		if err != nil {
			t.Fatalf("trial %d: utility: %v", trial, err)
		}
		want, err := optimizeOverCandidates(tr, attack, u.Score)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		if got != want {
			t.Fatalf("trial %d: utility(w=%g) threshold %v != brute force %v (n=%d, %d magnitudes)",
				trial, w, got, want, tr.N(), len(attack))
		}
		fm := FMeasureOptimal{}
		got, err = fm.Threshold(tr, attack)
		if err != nil {
			t.Fatalf("trial %d: f-measure: %v", trial, err)
		}
		want, err = optimizeOverCandidates(tr, attack, fm.Score)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		if got != want {
			t.Fatalf("trial %d: f-measure threshold %v != brute force %v", trial, got, want)
		}
	}
}

func trainDist(seed uint64, n int) *stats.Empirical {
	r := xrand.New(seed)
	v := make([]float64, n)
	for i := range v {
		v[i] = r.LogNormal(3, 1)
	}
	return stats.MustEmpirical(v)
}

func TestPercentileHeuristic(t *testing.T) {
	tr := trainDist(1, 5000)
	h := Percentile{Q: 0.99}
	thr, err := h.Threshold(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.MustQuantile(0.99); thr != got {
		t.Fatalf("threshold %g != q99 %g", thr, got)
	}
	// By construction the training FP rate is ~1%.
	if fp := tr.TailProb(thr); fp > 0.0102 {
		t.Fatalf("training FP = %g", fp)
	}
	if h.Name() == "" {
		t.Error("empty name")
	}
}

func TestPercentileBadQ(t *testing.T) {
	tr := trainDist(2, 100)
	if _, err := (Percentile{Q: 1.5}).Threshold(tr, nil); err == nil {
		t.Fatal("q > 1 accepted")
	}
}

func TestMeanSigmaHeuristic(t *testing.T) {
	tr := stats.MustEmpirical([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	h := MeanSigma{K: 3}
	thr, err := h.Threshold(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := 5 + 3*math.Sqrt(32.0/7.0)
	if math.Abs(thr-want) > 1e-12 {
		t.Fatalf("threshold = %g, want %g", thr, want)
	}
	if _, err := h.Threshold(nil, nil); err == nil {
		t.Fatal("nil training accepted")
	}
}

func TestUtilityOptimalBalancesErrors(t *testing.T) {
	tr := trainDist(3, 4000)
	attack := []float64{50, 100, 200}
	// With w = 0 only false positives matter: the optimal threshold
	// should have ~zero FP (at or above the max sample).
	thrFPOnly, err := (UtilityOptimal{W: 0}).Threshold(tr, attack)
	if err != nil {
		t.Fatal(err)
	}
	if fp := tr.TailProb(thrFPOnly); fp > 0.001 {
		t.Fatalf("w=0 threshold has FP %g", fp)
	}
	// With w = 1 only detection matters: threshold collapses low.
	thrFNOnly, err := (UtilityOptimal{W: 1}).Threshold(tr, attack)
	if err != nil {
		t.Fatal(err)
	}
	if thrFNOnly >= thrFPOnly {
		t.Fatalf("w=1 threshold %g not below w=0 threshold %g", thrFNOnly, thrFPOnly)
	}
	// Intermediate w sits in between (weakly).
	thrMid, err := (UtilityOptimal{W: 0.4}).Threshold(tr, attack)
	if err != nil {
		t.Fatal(err)
	}
	if thrMid < thrFNOnly-1e-9 || thrMid > thrFPOnly+1e-9 {
		t.Fatalf("w=0.4 threshold %g outside [%g, %g]", thrMid, thrFNOnly, thrFPOnly)
	}
}

func TestUtilityOptimalAchievesBestScore(t *testing.T) {
	// Exhaustively verify optimality over a fine threshold grid.
	tr := trainDist(5, 800)
	attack := []float64{30, 80}
	w := 0.4
	thr, err := (UtilityOptimal{W: w}).Threshold(tr, attack)
	if err != nil {
		t.Fatal(err)
	}
	score := func(T float64) float64 {
		fp := tr.TailProb(T)
		fn := (tr.CDF(T-30) + tr.CDF(T-80)) / 2
		return stats.Utility(fn, fp, w)
	}
	best := score(thr)
	for T := 0.0; T < tr.Max()+100; T += 0.5 {
		if s := score(T); s > best+1e-9 {
			t.Fatalf("grid threshold %g scores %g > chosen %g scoring %g", T, s, thr, best)
		}
	}
}

func TestUtilityOptimalErrors(t *testing.T) {
	tr := trainDist(6, 100)
	if _, err := (UtilityOptimal{W: 2}).Threshold(tr, []float64{10}); err == nil {
		t.Fatal("w > 1 accepted")
	}
	if _, err := (UtilityOptimal{W: 0.4}).Threshold(tr, nil); err == nil {
		t.Fatal("nil attack accepted")
	}
	if _, err := (UtilityOptimal{W: 0.4}).Threshold(nil, []float64{10}); err == nil {
		t.Fatal("nil training accepted")
	}
}

func TestFMeasureOptimal(t *testing.T) {
	tr := trainDist(7, 2000)
	thr, err := (FMeasureOptimal{}).Threshold(tr, []float64{100})
	if err != nil {
		t.Fatal(err)
	}
	// F-measure of the chosen threshold must beat a clearly bad one.
	f1 := func(T float64) float64 {
		fp := tr.TailProb(T)
		recall := 1 - tr.CDF(T-100)
		if recall+fp == 0 {
			return 0
		}
		p := recall / (recall + fp)
		if p <= 0 || recall <= 0 {
			return 0
		}
		return 2 * p * recall / (p + recall)
	}
	if f1(thr) < f1(tr.Max()*10) {
		t.Fatalf("chosen threshold %g has F1 %g below trivial threshold", thr, f1(thr))
	}
	if f1(thr) < f1(0) {
		t.Fatalf("chosen threshold %g has F1 %g below zero threshold", thr, f1(thr))
	}
	if (FMeasureOptimal{}).Name() == "" {
		t.Error("empty name")
	}
}

func TestHeuristicsDeterministic(t *testing.T) {
	tr := trainDist(8, 1000)
	attack := []float64{10, 40}
	for _, h := range []Heuristic{
		Percentile{Q: 0.99},
		MeanSigma{K: 3},
		UtilityOptimal{W: 0.4},
		FMeasureOptimal{},
	} {
		a, err := h.Threshold(tr, attack)
		if err != nil {
			t.Fatalf("%s: %v", h.Name(), err)
		}
		b, err := h.Threshold(tr, attack)
		if err != nil || a != b {
			t.Fatalf("%s not deterministic: %g vs %g (%v)", h.Name(), a, b, err)
		}
	}
}
