package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sameBits reports whether two float slices are equal bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// ladderValues are the values the ladder property draws bases and
// magnitudes from: ties, both zeros, both infinities and ordinary
// counts.
var ladderValues = []float64{
	0, math.Copysign(0, -1), 1, 1, 2.5, 3, 7, 7, 40, 1e6, -3, -1,
	math.Inf(1), math.Inf(-1), 0.1, 0.2, 0.30000000000000004,
}

// TestLadderMergeMatchesSort pins setAttack's ladder, bit for bit, to
// the sums appended row by row and run through sort.Float64s, over
// random bases and attacks: ascending and not, with ties, ±0 and ±Inf,
// single and empty magnitude sets. It also checks that the merge path
// really runs for ascending finite attacks without −0.
func TestLadderMergeMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	pick := func() float64 { return ladderValues[rng.Intn(len(ladderValues))] }
	merged := 0
	for trial := 0; trial < 5000; trial++ {
		var bases ladderBases
		for q := range bases {
			bases[q] = pick()
		}
		if trial%2 == 0 {
			sort.Float64s(bases[:]) // quantiles are usually ascending
		}
		attack := make([]float64, rng.Intn(6))
		if trial%5 == 0 {
			attack = make([]float64, 1)
		}
		for k := range attack {
			attack[k] = pick()
		}
		if trial%3 != 0 {
			sort.Float64s(attack)
		}
		var want []float64
		for _, base := range bases {
			for _, b := range attack {
				want = append(want, base+b)
			}
		}
		sort.Float64s(want)
		f := &Frontier{}
		f.setAttack(attack, &bases)
		if !sameBits(f.shifted, want) {
			t.Fatalf("bases %v attack %v: ladder %v, sort gives %v", bases, attack, f.shifted, want)
		}
		finite := true
		for _, base := range bases {
			finite = finite && !math.IsNaN(base)
		}
		if f.ordered && finite && len(attack) > 0 {
			merged++
		}
	}
	if merged < 500 {
		t.Fatalf("only %d of 5000 ladders took the merge path", merged)
	}
}

// TestAscendingFinite pins the precondition both the ladder merge and
// the sweep's prefix rest on.
func TestAscendingFinite(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		attack []float64
		want   bool
	}{
		{nil, true},
		{[]float64{5}, true},
		{[]float64{0, 1, 1, 2}, true},
		{[]float64{2, 1}, false},
		{[]float64{negZero, 1}, false},
		{[]float64{1, math.Inf(1)}, false},
		{[]float64{math.Inf(-1), 1}, false},
		{[]float64{1, math.NaN()}, false},
	} {
		if got := ascendingFinite(tc.attack); got != tc.want {
			t.Errorf("ascendingFinite(%v) = %v, want %v", tc.attack, got, tc.want)
		}
	}
}

// fullCursorSweep is the frontier sweep with every magnitude summed:
// each candidate's fn adds pcdf[#{uniq <= t-b}] for every b in attack
// order, the count found by binary search rather than by cursors. A
// NaN t-b (an infinite magnitude meeting an infinite candidate) keeps
// the magnitude's previous count, as a cursor that cannot advance does.
func fullCursorSweep(f *Frontier) [][3]float64 {
	cands := append(append([]float64(nil), f.uniq...), f.shifted...)
	sort.Float64s(cands)
	atOrBelow := func(x float64) int {
		return sort.Search(len(f.uniq), func(c int) bool { return f.uniq[c] > x })
	}
	counts := make([]int, len(f.attack))
	var out [][3]float64
	for i, t := range cands {
		if i > 0 && t == cands[i-1] {
			continue
		}
		fp := 1 - f.pcdf[atOrBelow(t)]
		var fn float64
		for k, b := range f.attack {
			if x := t - b; !math.IsNaN(x) {
				counts[k] = atOrBelow(x)
			}
			fn += f.pcdf[counts[k]]
		}
		if len(f.attack) > 0 {
			fn /= float64(len(f.attack))
		}
		out = append(out, [3]float64{t, fp, fn})
	}
	return out
}

// TestSweepSkipsOnlyUnreachedMagnitudes checks every (t, fp, fn) of
// Visit bitwise against the full-cursor sweep on a column far below
// most magnitudes, so for most candidates most magnitudes have not
// reached the column yet. Ascending attacks take the prefix sum; the
// descending, unsorted and infinite ones must take the full loop.
func TestSweepSkipsOnlyUnreachedMagnitudes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	col := make([]float64, 672)
	for i := range col {
		col[i] = math.Floor(rng.ExpFloat64() * 6)
	}
	train := MustEmpirical(col)
	geom := make([]float64, 24)
	for k := range geom {
		geom[k] = math.Pow(10, 6*float64(k)/23) // 1 … 1e6
	}
	reversed := make([]float64, len(geom))
	for k, b := range geom {
		reversed[len(geom)-1-k] = b
	}
	for _, tc := range []struct {
		name    string
		attack  []float64
		ordered bool
	}{
		{"ascending", geom, true},
		{"ascending with ties", []float64{1, 1, 3, 3, 50, 50, 1e4}, true},
		{"single", []float64{2}, true},
		{"empty", nil, true},
		{"descending", reversed, false},
		{"unsorted", []float64{40, 1, 1e5, 3}, false},
		{"infinite", []float64{1, 5, math.Inf(1)}, false},
	} {
		f, err := NewFrontier(train, tc.attack)
		if err != nil {
			t.Fatal(err)
		}
		if f.ordered != tc.ordered {
			t.Fatalf("%s: ordered = %v, want %v", tc.name, f.ordered, tc.ordered)
		}
		c, err := NewFrontierCompressed(foldOne(t, train), tc.attack)
		if err != nil {
			t.Fatal(err)
		}
		want := fullCursorSweep(f)
		for _, fr := range []*Frontier{f, c} {
			var got [][3]float64
			fr.Visit(func(t, fp, fn float64) { got = append(got, [3]float64{t, fp, fn}) })
			if len(got) != len(want) {
				t.Fatalf("%s: %d candidates, full sweep has %d", tc.name, len(got), len(want))
			}
			for i := range got {
				if !sameBits(got[i][:], want[i][:]) {
					t.Fatalf("%s: candidate %d (t, fp, fn) = %v, full sweep %v", tc.name, i, got[i], want[i])
				}
			}
		}
	}
}

// foldOne folds one distribution into a fresh accumulator.
func foldOne(t *testing.T, e *Empirical) *Compressed {
	t.Helper()
	var c Compressed
	c.AddEmpirical(e)
	return &c
}
