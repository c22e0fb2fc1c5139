package xrand

import (
	"fmt"
	"math"
	"testing"
)

var zipfRanksParams = []struct {
	n int
	s float64
}{
	{1, 1.1},
	{2, 1.05},
	{10, 0.5},
	{100, 1.2},
	{220, 1.17},
	{3000, 1.05},
	{3000, 2.5},
	{30000, 1.05},
	{30000, 1.30},
}

// TestZipfRanksStreamEquivalence pins the table sampler to the
// reference rejection-inversion sampler: same Source seed, identical
// variate stream, identical uniform consumption (checked by comparing
// the post-stream generator states).
func TestZipfRanksStreamEquivalence(t *testing.T) {
	for _, p := range zipfRanksParams {
		draws := 200000
		if testing.Short() {
			draws = 20000
		}
		ra, rb := New(uint64(p.n)*31+1), New(uint64(p.n)*31+1)
		ref := NewZipf(ra, p.n, p.s)
		tab := NewZipfRanks(p.n, p.s)
		for i := 0; i < draws; i++ {
			want := ref.Next()
			got := tab.Next(rb)
			if got != want {
				t.Fatalf("n=%d s=%g draw %d: table %d != reference %d", p.n, p.s, i, got, want)
			}
		}
		if ra.Uint64() != rb.Uint64() {
			t.Fatalf("n=%d s=%g: table consumed a different number of uniforms", p.n, p.s)
		}
	}
}

// TestZipfRanksBoundaryAgreement probes every precomputed boundary at
// offsets just inside and outside the guard band: the table's
// classification of u must match the reference step everywhere.
// Inside the band the table delegates to the reference (trivially
// equal); just outside is where a boundary misplaced by more than the
// pipeline's float error would first disagree.
func TestZipfRanksBoundaryAgreement(t *testing.T) {
	for _, p := range zipfRanksParams {
		if testing.Short() && p.n > 3000 {
			continue
		}
		tab := NewZipfRanks(p.n, p.s)
		lo := tab.hIntegralX1
		hi := tab.hIntegralN
		if lo > hi {
			lo, hi = hi, lo
		}
		offsets := []float64{
			-64 * tab.guard, -4 * tab.guard, -1.5 * tab.guard, -1.01 * tab.guard,
			-0.5 * tab.guard, 0, 0.5 * tab.guard,
			1.01 * tab.guard, 1.5 * tab.guard, 4 * tab.guard, 64 * tab.guard,
		}
		probe := func(b float64) {
			if math.IsNaN(b) {
				return
			}
			for _, off := range offsets {
				u := b + off
				if u <= lo || u > hi {
					continue
				}
				gk, gok := tab.classify(u)
				wk, wok := tab.step(u)
				if gok != wok || (gok && gk != wk) {
					t.Fatalf("n=%d s=%g u=%v (boundary %v offset %g): table (%d,%t) != reference (%d,%t)",
						p.n, p.s, u, b, off, gk, gok, wk, wok)
				}
			}
		}
		for _, b := range tab.buckets {
			probe(b.lo)
			probe(b.c)
		}
	}
}

// TestZipfRanksUniformAgreement hammers classify with uniforms spread
// over the whole draw range.
func TestZipfRanksUniformAgreement(t *testing.T) {
	r := New(99)
	for _, p := range zipfRanksParams {
		tab := NewZipfRanks(p.n, p.s)
		n := 200000
		if testing.Short() {
			n = 20000
		}
		for i := 0; i < n; i++ {
			u := tab.hIntegralN + r.Float64()*tab.delta
			gk, gok := tab.classify(u)
			wk, wok := tab.step(u)
			if gok != wok || (gok && gk != wk) {
				t.Fatalf("n=%d s=%g u=%v: table (%d,%t) != reference (%d,%t)", p.n, p.s, u, gk, gok, wk, wok)
			}
		}
	}
}

func TestZipfRanksPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero-n": func() { NewZipfRanks(0, 1) },
		"zero-s": func() { NewZipfRanks(10, 0) },
		"huge-n": func() { NewZipfRanks(maxZipfRanks+1, 1.1) },
		"neg-s":  func() { NewZipfRanks(10, -2) },
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

func BenchmarkZipfNext(b *testing.B) {
	r := New(1)
	z := NewZipf(r, 30000, 1.05)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		z.Next()
	}
}

func BenchmarkZipfRanksNext(b *testing.B) {
	for _, n := range []int{220, 1200, 30000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := New(1)
			z := NewZipfRanks(n, 1.05)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				z.Next(r)
			}
		})
	}
}

// BenchmarkNewZipfRanks covers the body of the pool-size
// distribution; the 30000 cap is excluded because its ~1 MB/op of
// table allocation makes the timing swing with the harness process's
// heap state, which the bench-check gate cannot tolerate (its build
// cost shows up in EXPERIMENTS.md instead).
func BenchmarkNewZipfRanks(b *testing.B) {
	for _, n := range []int{220, 1200} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewZipfRanks(n, 1.05)
			}
		})
	}
}

// TestZipfRanksSampleDistinct pins the bulk counts-path sampler to n
// sequential Next calls: same uniform consumption, same marks, same
// distinct count.
func TestZipfRanksSampleDistinct(t *testing.T) {
	for _, p := range zipfRanksParams {
		tab := NewZipfRanks(p.n, p.s)
		ra, rb := New(uint64(p.n)*13+3), New(uint64(p.n)*13+3)
		for epoch := uint16(1); epoch <= 4; epoch++ {
			n := 1000 * int(epoch)
			wantMarks := make([]uint16, p.n)
			gotMarks := make([]uint16, p.n)
			want := 0
			for i := 0; i < n; i++ {
				k := tab.Next(ra)
				if wantMarks[k-1] != epoch {
					wantMarks[k-1] = epoch
					want++
				}
			}
			got := tab.SampleDistinct(rb, n, gotMarks, epoch)
			if got != want {
				t.Fatalf("n=%d s=%g: SampleDistinct %d != reference %d", p.n, p.s, got, want)
			}
			if ra.Uint64() != rb.Uint64() {
				t.Fatalf("n=%d s=%g: uniform consumption diverged", p.n, p.s)
			}
		}
	}
}

// TestZipfRanksPooledEquivalence pins pooled construction to the
// plain one: tables built into recycled (dirty) storage must emit the
// identical variate stream. The release-and-rebuild loop walks the
// sizes out of order so each build inherits another size's leftover
// bytes — exactly the dirty-reuse case the pool's safety argument
// rests on.
func TestZipfRanksPooledEquivalence(t *testing.T) {
	// Warm the pools with deliberately mismatched sizes so the first
	// builds below already see dirty storage.
	for _, p := range zipfRanksParams {
		NewZipfRanksPooled(p.n, p.s).Release()
	}
	for round := 0; round < 3; round++ {
		for i := len(zipfRanksParams) - 1; i >= 0; i-- {
			p := zipfRanksParams[i]
			draws := 20000
			if testing.Short() {
				draws = 2000
			}
			ra, rb := New(uint64(p.n)*977+uint64(round)), New(uint64(p.n)*977+uint64(round))
			fresh := NewZipfRanks(p.n, p.s)
			pooled := NewZipfRanksPooled(p.n, p.s)
			for d := 0; d < draws; d++ {
				want := fresh.Next(ra)
				got := pooled.Next(rb)
				if got != want {
					t.Fatalf("round %d n=%d s=%g draw %d: pooled %d != fresh %d", round, p.n, p.s, d, got, want)
				}
			}
			if ra.Uint64() != rb.Uint64() {
				t.Fatalf("round %d n=%d s=%g: pooled table consumed a different number of uniforms", round, p.n, p.s)
			}
			pooled.Release()
		}
	}
}

// BenchmarkNewZipfRanksPooled is the pooled counterpart of
// BenchmarkNewZipfRanks: same table sizes, construction into recycled
// storage. The allocs/op column is the point — a warmed pool builds
// for zero allocations, which is what flattens the per-user setup
// tail in the 5000-user sweep.
func BenchmarkNewZipfRanksPooled(b *testing.B) {
	for _, n := range []int{220, 1200} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			NewZipfRanksPooled(n, 1.05).Release()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				NewZipfRanksPooled(n, 1.05).Release()
			}
		})
	}
}

// NewZipfRanks builds the rank table for Zipf(n, s) into freshly
// allocated storage: the reference NewZipfRanksPooled must match entry
// for entry. It panics if n < 1, n > 32767, or s <= 0.
func NewZipfRanks(n int, s float64) *ZipfRanks {
	checkZipfRanksArgs(n, s)
	z := new(ZipfRanks)
	z.build(n, s, make([]zipfBucket, n+1), make([]int16, fastCells(n)+1))
	return z
}

// classify maps one uniform u to (rank, accepted): one load for
// draws whose cell is pre-decided, the bracketed search path
// otherwise. The boundary tests drive it with chosen uniforms.
func (z *ZipfRanks) classify(u float64) (int, bool) {
	if z.in > 1 {
		// The last real cell is len-2: the final entry is the
		// bottom-of-range sentinel every cell reads as its far
		// bracket.
		i := int((u - z.hIntegralN) * z.invDeltaG)
		if i < 0 {
			i = 0
		} else if i >= len(z.fast)-1 {
			i = len(z.fast) - 2
		}
		v := z.fast[i]
		if v > 0 {
			return int(v), true
		}
		return z.classifySlow(u, i)
	}
	return z.classifySlow(u, 0)
}
