package stats

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"repro/internal/xrand"
)

// frontierFixture builds a duplicate-heavy training distribution (the
// real feature columns are counts) and an attack sweep spanning the
// benign range and beyond.
func frontierFixture(seed uint64, n int) (*Empirical, []float64) {
	r := xrand.New(seed)
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Floor(r.LogNormal(3, 1))
	}
	attack := []float64{1, 7.5, 40, 400, 1e6}
	return MustEmpirical(v), attack
}

// referenceCandidates rebuilds the candidate set the way the
// pre-frontier brute force did: a dedup map over every training
// sample plus every coarse attack-shifted quantile, then sorted.
func referenceCandidates(train *Empirical, attack []float64) []float64 {
	set := make(map[float64]struct{})
	for i := 0; i < train.N(); i++ {
		set[train.At(i)] = struct{}{}
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		base := train.MustQuantile(q)
		for _, b := range attack {
			set[base+b] = struct{}{}
		}
	}
	out := make([]float64, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Float64s(out)
	return out
}

func TestFrontierEnumeratesExactCandidateSet(t *testing.T) {
	train, attack := frontierFixture(1, 500)
	f, err := NewFrontier(train, attack)
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	f.Visit(func(thr, _, _ float64) { got = append(got, thr) })
	want := referenceCandidates(train, attack)
	if len(got) != len(want) {
		t.Fatalf("frontier enumerates %d candidates, reference has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("candidate %d: %v != reference %v", i, got[i], want[i])
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("candidates not strictly ascending at %d: %v after %v", i, got[i], got[i-1])
		}
	}
}

func TestFrontierOperatingPointsMatchDirectQueries(t *testing.T) {
	train, attack := frontierFixture(2, 300)
	f, err := NewFrontier(train, attack)
	if err != nil {
		t.Fatal(err)
	}
	f.Visit(func(thr, fp, fn float64) {
		if want := train.TailProb(thr); fp != want {
			t.Fatalf("t=%v: fp %v != TailProb %v", thr, fp, want)
		}
		var want float64
		for _, b := range attack {
			want += train.CDF(thr - b)
		}
		want /= float64(len(attack))
		if fn != want {
			t.Fatalf("t=%v: fn %v != averaged CDF %v", thr, fn, want)
		}
	})
}

func TestFrontierEmptyAttack(t *testing.T) {
	train, _ := frontierFixture(3, 100)
	f, err := NewFrontier(train, nil)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	f.Visit(func(thr, fp, fn float64) {
		count++
		if fn != 0 {
			t.Fatalf("t=%v: fn %v with no attack magnitudes", thr, fn)
		}
	})
	uniq := map[float64]struct{}{}
	for i := 0; i < train.N(); i++ {
		uniq[train.At(i)] = struct{}{}
	}
	if count != len(uniq) {
		t.Fatalf("%d candidates, want the %d unique training samples", count, len(uniq))
	}
}

func TestFrontierResetReuse(t *testing.T) {
	trainA, attackA := frontierFixture(4, 200)
	trainB, attackB := frontierFixture(5, 350)
	reused, err := NewFrontier(trainA, attackA)
	if err != nil {
		t.Fatal(err)
	}
	if err := reused.Reset(trainB, attackB); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewFrontier(trainB, attackB)
	if err != nil {
		t.Fatal(err)
	}
	type pt struct{ t, fp, fn float64 }
	var a, b []pt
	reused.Visit(func(t, fp, fn float64) { a = append(a, pt{t, fp, fn}) })
	fresh.Visit(func(t, fp, fn float64) { b = append(b, pt{t, fp, fn}) })
	if len(a) != len(b) {
		t.Fatalf("reused frontier has %d points, fresh %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("point %d: reused %+v != fresh %+v", i, a[i], b[i])
		}
	}
}

func TestFrontierRepeatedSweepsIdentical(t *testing.T) {
	train, attack := frontierFixture(6, 250)
	f, err := NewFrontier(train, attack)
	if err != nil {
		t.Fatal(err)
	}
	score := func(fp, fn float64) float64 { return Utility(fn, fp, 0.4) }
	first := f.Maximize(score, nil)
	for i := 0; i < 3; i++ {
		if again := f.Maximize(score, nil); again != first {
			t.Fatalf("sweep %d: %v != first sweep %v (cursor scratch leaked)", i, again, first)
		}
	}
}

// TestFrontierConcurrentSweeps sweeps one shared frontier from many
// goroutines at once — the memoized-frontier sharing pattern of
// parallel Assignment builds (e.g. full-diversity and 8-partial
// configuring simultaneously, both hitting the same user's cached
// frontier). Run under -race this is the regression guard for the
// sweep state living on the caller's stack rather than the struct.
func TestFrontierConcurrentSweeps(t *testing.T) {
	train, attack := frontierFixture(8, 400)
	f, err := NewFrontier(train, attack)
	if err != nil {
		t.Fatal(err)
	}
	utility := func(fp, fn float64) float64 { return Utility(fn, fp, 0.4) }
	fmeasure := func(fp, fn float64) float64 {
		recall := 1 - fn
		if recall+fp == 0 {
			return 0
		}
		precision := recall / (recall + fp)
		if precision <= 0 || recall <= 0 {
			return 0
		}
		return 2 * precision * recall / (precision + recall)
	}
	wantU, wantF := f.Maximize(utility, nil), f.Maximize(fmeasure, nil)
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				if got := f.Maximize(utility, nil); got != wantU {
					errs <- fmt.Sprintf("goroutine %d: utility %v != %v", g, got, wantU)
					return
				}
				if got := f.Maximize(fmeasure, nil); got != wantF {
					errs <- fmt.Sprintf("goroutine %d: f-measure %v != %v", g, got, wantF)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func TestFrontierErrors(t *testing.T) {
	if _, err := NewFrontier(nil, []float64{1}); err == nil {
		t.Fatal("nil training accepted")
	}
	if _, err := NewFrontier(&Empirical{}, []float64{1}); err == nil {
		t.Fatal("empty training accepted")
	}
	if _, err := AcquireFrontier(nil, nil); err == nil {
		t.Fatal("acquire with nil training accepted")
	}
}

func TestCountAboveSorted(t *testing.T) {
	sorted := []float64{1, 2, 2, 3, 5, 5, 5, 9}
	for _, tc := range []struct {
		x    float64
		want int
	}{{0, 8}, {1, 7}, {2, 5}, {4.5, 4}, {5, 1}, {9, 0}, {10, 0}} {
		if got := CountAboveSorted(sorted, tc.x); got != tc.want {
			t.Fatalf("CountAboveSorted(%g) = %d, want %d", tc.x, got, tc.want)
		}
	}
	if CountAboveSorted(nil, 0) != 0 {
		t.Fatal("empty slice")
	}
}

// BenchmarkFrontierBuildAndMaximize times one singleton's utility
// configure: build a pooled frontier over a user-week column and
// maximize w = 0.4 utility under its bound, 1 − w·fn.
func BenchmarkFrontierBuildAndMaximize(b *testing.B) {
	train, attack := frontierFixture(11, 672) // one user-week column
	score := func(fp, fn float64) float64 { return Utility(fn, fp, 0.4) }
	bound := func(fn float64) float64 { return 1 - float64(0.4*fn) }
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := AcquireFrontier(train, attack)
		if err != nil {
			b.Fatal(err)
		}
		_ = f.Maximize(score, bound)
		f.Release()
	}
}

// TestMaximizeBoundStopsOnlyPastTies pins Maximize's early stop to the
// tie rule: on objectives whose scores climb in steps below, at and
// above the 1e-15 tie tolerance toward a known cap, the bounded sweep
// (bound = the cap) returns exactly the full sweep's threshold. A stop
// test looser than bound <= best + 1e-15 ends some of these sweeps
// before a later candidate passes the tie rule.
func TestMaximizeBoundStopsOnlyPastTies(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 40} {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i)
		}
		f, err := NewFrontier(MustEmpirical(v), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []float64{0, 0.5, 1} {
			for _, step := range []float64{0.3e-15, 0.9e-15, 1e-15, 1.1e-15, 2e-15, 1e-14} {
				// 1 − fp climbs 1/n per candidate, so the score
				// climbs step·n·(1/n) ≈ step per candidate to the cap.
				k := step * float64(n)
				score := func(fp, _ float64) float64 { return c + (1-fp)*k }
				cap := c + k
				bound := func(float64) float64 { return cap }
				full, bounded := f.Maximize(score, nil), f.Maximize(score, bound)
				if math.Float64bits(full) != math.Float64bits(bounded) {
					t.Fatalf("n=%d c=%g step=%g: bounded Maximize %v != full sweep %v", n, c, step, bounded, full)
				}
			}
		}
	}
}
