package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// checkSortCounts fails unless SortCounts sorts a copy of s into the
// exact bits sort.Float64s does.
func checkSortCounts(tb testing.TB, s []float64) {
	tb.Helper()
	want := slices.Clone(s)
	sort.Float64s(want)
	got := slices.Clone(s)
	SortCounts(got)
	if !sameBits(got, want) {
		tb.Fatalf("SortCounts(%v) = %v, want %v", s, got, want)
	}
}

// TestSortCountsMatchesSort pins SortCounts bit for bit to
// sort.Float64s: random count columns of the window lengths the
// workspace sorts, with their largest count just below the counting
// limit 4·len and at it, and columns holding each value that must take
// the fallback next to ordinary counts.
func TestSortCountsMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, n := range []int{0, 1, 96, 672} {
		for _, top := range []int{4*n - 1, 4 * n} {
			for trial := 0; trial < 20; trial++ {
				s := make([]float64, n)
				for i := range s {
					s[i] = float64(rng.Intn(max(top, 1)))
				}
				if n > 0 {
					s[rng.Intn(n)] = float64(top)
				}
				checkSortCounts(t, s)
			}
		}
	}
	adversarial := []float64{
		math.NaN(), math.Copysign(0, -1), -1, -0.5, 0.5, 2.25,
		math.Inf(1), math.Inf(-1), 1 << 53, 1e300,
	}
	for _, bad := range adversarial {
		for _, n := range []int{2, 96, 672} {
			s := make([]float64, n)
			for i := range s {
				s[i] = float64(rng.Intn(n))
			}
			s[rng.Intn(n)] = bad
			s[rng.Intn(n)] = 0 // +0 beside a possible −0
			checkSortCounts(t, s)
		}
	}
}

// countColumn draws one 672-window count column: mostly small counts
// with a heavy tail, the shape of a week of feature windows.
func countColumn(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = math.Floor(math.Exp(rng.Float64() * math.Log(float64(2*n))))
	}
	return s
}

// BenchmarkSortCounts times SortCounts against sort.Float64s on
// 672-window count columns, each iteration re-sorting a fresh copy.
func BenchmarkSortCounts(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cols := make([][]float64, 64)
	for i := range cols {
		cols[i] = countColumn(rng, 672)
	}
	buf := make([]float64, 672)
	for _, bc := range []struct {
		name string
		sort func([]float64)
	}{{"counts", SortCounts}, {"float64s", sort.Float64s}} {
		b.Run(bc.name, func(b *testing.B) {
			i := 0
			for b.Loop() {
				copy(buf, cols[i%len(cols)])
				bc.sort(buf)
				i++
			}
		})
	}
}

// fuzzFloats decodes fuzz bytes into float64s: a byte below 0xf0 is
// that count, 0xf0–0xf7 are values the counting path must refuse, and
// 0xf8–0xff take the next eight bytes as raw little-endian bits.
func fuzzFloats(data []byte) []float64 {
	specials := [8]float64{
		math.NaN(), math.Copysign(0, -1), -1, 0.5,
		math.Inf(1), math.Inf(-1), 1 << 53, 1e300,
	}
	var s []float64
	for len(data) > 0 {
		c := data[0]
		data = data[1:]
		switch {
		case c < 0xf0:
			s = append(s, float64(c))
		case c < 0xf8:
			s = append(s, specials[c-0xf0])
		case len(data) >= 8:
			s = append(s, math.Float64frombits(binary.LittleEndian.Uint64(data)))
			data = data[8:]
		}
	}
	return s
}

// FuzzSortCounts requires SortCounts to match sort.Float64s bit for
// bit on any column, counting or not. Its seeds are in
// testdata/fuzz/FuzzSortCounts.
func FuzzSortCounts(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSortCounts(t, fuzzFloats(data))
	})
}
