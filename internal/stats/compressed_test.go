package stats

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// randColumns builds nCols sorted sample columns. Values mix small
// integers (count features repeat heavily) with continuous draws so
// both the run-length-compressed and the near-all-distinct regimes
// are exercised.
func randColumns(rng *rand.Rand, nCols int) [][]float64 {
	cols := make([][]float64, nCols)
	for i := range cols {
		n := 1 + rng.Intn(40)
		col := make([]float64, n)
		for j := range col {
			if rng.Intn(3) == 0 {
				col[j] = rng.Float64() * 50
			} else {
				col[j] = float64(rng.Intn(12))
			}
		}
		sort.Float64s(col)
		cols[i] = col
	}
	return cols
}

// mergedReference builds the whole-heap reference distribution the
// compressed fold must reproduce bit for bit.
func mergedReference(t *testing.T, cols [][]float64) *Empirical {
	t.Helper()
	dists := make([]*Empirical, len(cols))
	for i, c := range cols {
		dists[i] = MustEmpirical(c)
	}
	m, err := MergeEmpiricals(dists)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func foldAll(t *testing.T, cols [][]float64) *Compressed {
	t.Helper()
	var c Compressed
	for _, col := range cols {
		if err := c.AddSorted(col); err != nil {
			t.Fatal(err)
		}
	}
	return &c
}

// TestCompressedMomentsBitIdentical pins Mean and StdDev to the merged
// sorted copy's bit for bit, over columns spanning five decades with
// heavy ties, and the empty and one-sample edge cases.
func TestCompressedMomentsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 200; trial++ {
		cols := randColumns(rng, 1+rng.Intn(8))
		// A third of a power of ten: tied values no float64 holds
		// exactly, so the summation order shows in the low bits.
		scale := math.Pow(10, float64(rng.Intn(5))) / 3
		for _, col := range cols {
			for j := range col {
				col[j] *= scale
			}
		}
		ref := mergedReference(t, cols)
		c := foldAll(t, cols)
		for _, m := range []struct {
			name      string
			got, want float64
		}{
			{"mean", c.Mean(), ref.Mean()},
			{"stddev", c.StdDev(), ref.StdDev()},
		} {
			if math.Float64bits(m.got) != math.Float64bits(m.want) {
				t.Fatalf("trial %d %s: %v != %v", trial, m.name, m.got, m.want)
			}
		}
	}
	var c Compressed
	if c.Mean() != 0 || c.StdDev() != 0 {
		t.Fatal("empty accumulator has non-zero moments")
	}
	c.AddSorted([]float64{7})
	if c.Mean() != 7 || c.StdDev() != 0 {
		t.Fatalf("one sample: mean %v stddev %v", c.Mean(), c.StdDev())
	}
}

func TestCompressedQuantileBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	qs := []float64{0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1}
	for trial := 0; trial < 50; trial++ {
		cols := randColumns(rng, 1+rng.Intn(8))
		ref := mergedReference(t, cols)
		c := foldAll(t, cols)
		if c.N() != int64(ref.N()) {
			t.Fatalf("trial %d: N=%d want %d", trial, c.N(), ref.N())
		}
		for _, q := range qs {
			want, err := ref.Quantile(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.Quantile(q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d q=%g: %x != %x (%g vs %g)",
					trial, q, math.Float64bits(got), math.Float64bits(want), got, want)
			}
		}
	}
}

func TestCompressedFoldOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(87))
	for trial := 0; trial < 30; trial++ {
		cols := randColumns(rng, 2+rng.Intn(7))
		seq := foldAll(t, cols)

		// Reversed fold order.
		rev := make([][]float64, len(cols))
		for i, c := range cols {
			rev[len(cols)-1-i] = c
		}
		back := foldAll(t, rev)
		if !reflect.DeepEqual(seq.uniq, back.uniq) || !reflect.DeepEqual(seq.cum, back.cum) {
			t.Fatalf("trial %d: reversed fold order diverges", trial)
		}

		// Two partial accumulators merged (the per-worker fold shape).
		cut := 1 + rng.Intn(len(cols)-1)
		left := foldAll(t, cols[:cut])
		right := foldAll(t, cols[cut:])
		left.Merge(right)
		if !reflect.DeepEqual(seq.uniq, left.uniq) || !reflect.DeepEqual(seq.cum, left.cum) {
			t.Fatalf("trial %d: Merge of partial folds diverges from sequential", trial)
		}
	}
}

func TestCompressedFrontierBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type point struct{ t, fp, fn float64 }
	for trial := 0; trial < 30; trial++ {
		cols := randColumns(rng, 1+rng.Intn(6))
		attack := make([]float64, rng.Intn(5))
		for i := range attack {
			attack[i] = rng.Float64() * 30
		}
		ref := mergedReference(t, cols)
		want, err := NewFrontier(ref, attack)
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewFrontierCompressed(foldAll(t, cols), attack)
		if err != nil {
			t.Fatal(err)
		}
		var wantPts, gotPts []point
		want.Visit(func(t, fp, fn float64) { wantPts = append(wantPts, point{t, fp, fn}) })
		got.Visit(func(t, fp, fn float64) { gotPts = append(gotPts, point{t, fp, fn}) })
		if len(wantPts) != len(gotPts) {
			t.Fatalf("trial %d: %d visit points, want %d", trial, len(gotPts), len(wantPts))
		}
		for i := range wantPts {
			w, g := wantPts[i], gotPts[i]
			if math.Float64bits(w.t) != math.Float64bits(g.t) ||
				math.Float64bits(w.fp) != math.Float64bits(g.fp) ||
				math.Float64bits(w.fn) != math.Float64bits(g.fn) {
				t.Fatalf("trial %d point %d: got %+v want %+v", trial, i, g, w)
			}
		}
		score := func(fp, fn float64) float64 { return Utility(fn, fp, 0.4) }
		if wb, gb := want.Maximize(score, nil), got.Maximize(score, nil); math.Float64bits(wb) != math.Float64bits(gb) {
			t.Fatalf("trial %d: Maximize %g != %g", trial, gb, wb)
		}
	}
}

func TestCompressedValidation(t *testing.T) {
	var c Compressed
	if _, err := c.Quantile(0.5); err != ErrNoSamples {
		t.Fatalf("empty Quantile err = %v, want ErrNoSamples", err)
	}
	if _, err := NewFrontierCompressed(&c, nil); err != ErrNoSamples {
		t.Fatalf("empty frontier err = %v, want ErrNoSamples", err)
	}
	if err := c.AddSorted([]float64{2, 1}); err == nil {
		t.Fatal("unsorted column accepted")
	}
	if err := c.AddSorted([]float64{1, math.NaN()}); err == nil {
		t.Fatal("NaN column accepted")
	}
	if err := c.AddSorted(nil); err != nil {
		t.Fatalf("empty column should be a no-op: %v", err)
	}
	if err := c.AddSorted([]float64{3}); err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := c.Quantile(q); err == nil {
			t.Fatalf("quantile %g accepted", q)
		}
	}
	if v, err := c.Quantile(1); err != nil || v != 3 {
		t.Fatalf("single-sample quantile = %g, %v", v, err)
	}
	c.AddEmpirical(nil) // no-op, must not panic
	var d Compressed
	d.Merge(&c)
	d.Merge(nil)
	if d.N() != 1 || len(d.uniq) != 1 {
		t.Fatalf("merge into empty: N=%d distinct=%d", d.N(), len(d.uniq))
	}
}

// runsOf is the independent reference state of a fold: the run-length
// compression of the merged sorted sample array.
func runsOf(sorted []float64) (uniq []float64, cum []int64) {
	for i, v := range sorted {
		if i > 0 && v == sorted[i-1] {
			cum[len(cum)-1]++
			continue
		}
		uniq = append(uniq, v)
		cum = append(cum, int64(i+1))
	}
	return uniq, cum
}

// TestCompressedAddEmpiricalsMatchesSequential pins the bottom-up batch
// fold: the same uniq/cum state as AddEmpirical member by member and as
// the run-length compression of the merged samples, onto an empty or a
// pre-filled accumulator, with nil and empty members, all-equal values,
// one member and enough members to span several merge batches; and
// quantiles and frontiers bit-identical to the merged Empirical's.
func TestCompressedAddEmpiricalsMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	allEqual := func(n int) [][]float64 {
		cols := make([][]float64, n)
		for i := range cols {
			cols[i] = []float64{4, 4, 4}
		}
		return cols
	}
	cases := map[string][][]float64{
		"one member":        randColumns(rng, 1),
		"all equal":         allEqual(9),
		"1000 members":      randColumns(rng, 1000),
		"67 members":        randColumns(rng, 67),
		"with nil members":  append(randColumns(rng, 5), nil, nil),
		"only empty member": {nil},
	}
	qs := []float64{0, 0.01, 0.5, 0.99, 0.999, 1}
	attack := []float64{2, 7.5, 30}
	for name, cols := range cases {
		for _, prefill := range [][]float64{nil, {0.5, 4, 4, 9}} {
			es := make([]*Empirical, len(cols))
			for i, col := range cols {
				switch {
				case col == nil && i%2 == 0:
					es[i] = nil
				case col == nil:
					es[i] = &Empirical{}
				default:
					es[i] = MustEmpirical(col)
				}
			}
			var seq, batch Compressed
			if prefill != nil {
				seq.AddSorted(prefill)
				batch.AddSorted(prefill)
			}
			for _, e := range es {
				seq.AddEmpirical(e)
			}
			batch.AddEmpiricals(es)
			if !reflect.DeepEqual(batch.uniq, seq.uniq) || !reflect.DeepEqual(batch.cum, seq.cum) {
				t.Fatalf("%s prefill=%v: AddEmpiricals state diverges from sequential AddEmpirical", name, prefill != nil)
			}
			all := append([][]float64{prefill}, cols...)
			var merged []float64
			for _, col := range all {
				merged = append(merged, col...)
			}
			sort.Float64s(merged)
			wantU, wantC := runsOf(merged)
			if !reflect.DeepEqual(batch.uniq, wantU) || !reflect.DeepEqual(batch.cum, wantC) {
				t.Fatalf("%s prefill=%v: AddEmpiricals state diverges from the merged runs", name, prefill != nil)
			}
			if len(merged) == 0 {
				continue
			}
			ref := MustEmpirical(merged)
			for _, q := range qs {
				want, _ := ref.Quantile(q)
				got, err := batch.Quantile(q)
				if err != nil || math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s q=%g: %g, %v; want %g", name, q, got, err, want)
				}
			}
			wf, err := NewFrontier(ref, attack)
			if err != nil {
				t.Fatal(err)
			}
			gf, err := NewFrontierCompressed(&batch, attack)
			if err != nil {
				t.Fatal(err)
			}
			var wantPts, gotPts [][3]float64
			wf.Visit(func(t, fp, fn float64) { wantPts = append(wantPts, [3]float64{t, fp, fn}) })
			gf.Visit(func(t, fp, fn float64) { gotPts = append(gotPts, [3]float64{t, fp, fn}) })
			if !reflect.DeepEqual(gotPts, wantPts) {
				t.Fatalf("%s: frontier visits diverge from the merged Empirical's", name)
			}
		}
	}
}

// AddSorted folds an already-sorted, NaN-free sample column into the
// accumulator, validated under the same contract as
// Empirical.AdoptSorted. An empty column is a no-op. The tests build
// accumulators from raw columns with it.
func (c *Compressed) AddSorted(col []float64) error {
	if err := checkSorted(col); err != nil {
		return err
	}
	c.fold(1, func(int) []float64 { return col })
	return nil
}

// AddEmpirical folds one Empirical (nil or empty is a no-op): the
// one-at-a-time reference that AddEmpiricals' batch fold must match.
func (c *Compressed) AddEmpirical(e *Empirical) {
	c.AddEmpiricals([]*Empirical{e})
}
