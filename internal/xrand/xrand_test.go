package xrand

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical words out of 100", same)
	}
}

func TestReseedRestoresStream(t *testing.T) {
	r := New(7)
	first := make([]uint64, 50)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Reseed(7)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("after Reseed word %d = %d, want %d", i, got, first[i])
		}
	}
}

func TestReseedClearsNormalSpare(t *testing.T) {
	r := New(7)
	r.NormFloat64() // leaves a spare cached
	r.Reseed(7)
	a := r.NormFloat64()
	r2 := New(7)
	b := r2.NormFloat64()
	if a != b {
		t.Fatalf("Reseed did not clear the polar-method spare: %g != %g", a, b)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(99)
	child := parent.Fork()
	// The two streams must not be identical.
	identical := true
	for i := 0; i < 64; i++ {
		if parent.Uint64() != child.Uint64() {
			identical = false
			break
		}
	}
	if identical {
		t.Fatal("forked stream identical to parent stream")
	}
}

func TestForkDeterminism(t *testing.T) {
	mk := func() (uint64, uint64) {
		p := New(5)
		c1 := p.Fork()
		c2 := p.Fork()
		return c1.Uint64(), c2.Uint64()
	}
	a1, a2 := mk()
	b1, b2 := mk()
	if a1 != b1 || a2 != b2 {
		t.Fatal("Fork is not deterministic")
	}
	if a1 == a2 {
		t.Fatal("sibling forks produced the same first word")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %g, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(13)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 2000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(17)
	const buckets = 10
	const n = 100000
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d deviates from %g by more than 5 sigma", b, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := New(19)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(23)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Normal(10, 3)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("Normal mean = %g, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-3) > 0.05 {
		t.Fatalf("Normal stddev = %g, want ~3", math.Sqrt(variance))
	}
}

func TestExponentialMean(t *testing.T) {
	r := New(29)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exponential(4)
	}
	if mean := sum / n; math.Abs(mean-4) > 0.1 {
		t.Fatalf("Exponential(4) mean = %g", mean)
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := New(31)
	const n = 100001
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = r.LogNormal(2, 1.5)
	}
	// Median of lognormal(mu, sigma) is exp(mu).
	med := quickMedian(vals)
	want := math.Exp(2)
	if math.Abs(med-want)/want > 0.05 {
		t.Fatalf("LogNormal median = %g, want ~%g", med, want)
	}
}

func quickMedian(vals []float64) float64 {
	// simple selection; fine for tests
	cp := append([]float64(nil), vals...)
	k := len(cp) / 2
	lo, hi := 0, len(cp)-1
	for {
		if lo >= hi {
			return cp[k]
		}
		pivot := cp[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for cp[i] < pivot {
				i++
			}
			for cp[j] > pivot {
				j--
			}
			if i <= j {
				cp[i], cp[j] = cp[j], cp[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			return cp[k]
		}
	}
}

func TestParetoTail(t *testing.T) {
	r := New(37)
	const n = 200000
	xm, alpha := 2.0, 1.5
	exceed := 0
	for i := 0; i < n; i++ {
		v := r.Pareto(xm, alpha)
		if v < xm {
			t.Fatalf("Pareto produced %g < xm=%g", v, xm)
		}
		if v > 10 {
			exceed++
		}
	}
	// P(X > 10) = (xm/10)^alpha
	want := math.Pow(xm/10, alpha)
	got := float64(exceed) / n
	if math.Abs(got-want)/want > 0.1 {
		t.Fatalf("Pareto tail P(X>10) = %g, want ~%g", got, want)
	}
}

func TestPoissonMoments(t *testing.T) {
	for _, mean := range []float64{0.5, 3, 12, 40, 250, 2000} {
		r := New(43)
		const n = 60000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			v := float64(r.Poisson(mean))
			if v < 0 {
				t.Fatalf("Poisson(%g) produced negative value", mean)
			}
			sum += v
			sumSq += v * v
		}
		m := sum / n
		variance := sumSq/n - m*m
		tol := 5 * math.Sqrt(mean/n) // ~5 sigma on the sample mean
		if math.Abs(m-mean) > tol+0.05 {
			t.Errorf("Poisson(%g) mean = %g (tol %g)", mean, m, tol)
		}
		if math.Abs(variance-mean)/mean > 0.1 {
			t.Errorf("Poisson(%g) variance = %g, want ~mean", mean, variance)
		}
	}
}

func TestPoissonZeroMean(t *testing.T) {
	r := New(47)
	for i := 0; i < 100; i++ {
		if v := r.Poisson(0); v != 0 {
			t.Fatalf("Poisson(0) = %d", v)
		}
	}
}

func TestBinomialMoments(t *testing.T) {
	r := New(53)
	const n = 50000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(r.Binomial(20, 0.3))
	}
	if mean := sum / n; math.Abs(mean-6) > 0.1 {
		t.Fatalf("Binomial(20,0.3) mean = %g, want ~6", mean)
	}
}

func TestZipfRankOneMostFrequent(t *testing.T) {
	r := New(59)
	z := NewZipf(r, 100, 1.2)
	counts := make([]int, 101)
	for i := 0; i < 100000; i++ {
		k := z.Next()
		if k < 1 || k > 100 {
			t.Fatalf("Zipf out of range: %d", k)
		}
		counts[k]++
	}
	if counts[1] <= counts[2] || counts[2] <= counts[10] {
		t.Fatalf("Zipf counts not decreasing: c1=%d c2=%d c10=%d",
			counts[1], counts[2], counts[10])
	}
	// Check the 1 vs 2 ratio against 2^s.
	ratio := float64(counts[1]) / float64(counts[2])
	want := math.Pow(2, 1.2)
	if math.Abs(ratio-want)/want > 0.15 {
		t.Fatalf("Zipf rank1/rank2 ratio = %g, want ~%g", ratio, want)
	}
}

func TestDistPanics(t *testing.T) {
	r := New(1)
	for name, fn := range map[string]func(){
		"Normal":      func() { r.Normal(0, -1) },
		"Exponential": func() { r.Exponential(0) },
		"Pareto":      func() { r.Pareto(0, 1) },
		"Poisson":     func() { r.Poisson(-1) },
		"Binomial":    func() { r.Binomial(-1, 0.5) },
		"Zipf":        func() { NewZipf(r, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with invalid args did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkPoissonLargeMean(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Poisson(500)
	}
}
