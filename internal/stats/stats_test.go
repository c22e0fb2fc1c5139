package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestPearsonKnown(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if got := Pearson(x, y); math.Abs(got-1) > 1e-12 {
		t.Fatalf("perfect positive correlation = %g", got)
	}
	yNeg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(x, yNeg); math.Abs(got+1) > 1e-12 {
		t.Fatalf("perfect negative correlation = %g", got)
	}
	if got := Pearson(x, []float64{1, 1, 1, 1, 1}); got != 0 {
		t.Fatalf("zero-variance correlation = %g", got)
	}
	if got := Pearson(x, []float64{1, 2}); got != 0 {
		t.Fatalf("length-mismatch correlation = %g", got)
	}
}

func TestSpearmanMonotone(t *testing.T) {
	// Spearman is 1 for any strictly monotone relationship.
	x := []float64{1, 2, 3, 4, 5, 6}
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = math.Exp(v) // nonlinear but monotone
	}
	if got := Spearman(x, y); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Spearman of monotone data = %g, want 1", got)
	}
}

func TestRanksWithTies(t *testing.T) {
	got := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", got, want)
		}
	}
}

func TestConfusionMetrics(t *testing.T) {
	c := Confusion{TP: 8, FP: 2, TN: 88, FN: 2}
	if got := c.Recall(); got != 0.8 {
		t.Errorf("Recall = %g", got)
	}
	if got := c.FalsePositiveRate(); math.Abs(got-2.0/90) > 1e-12 {
		t.Errorf("FPR = %g", got)
	}
	if got := c.FalseNegativeRate(); got != 0.2 {
		t.Errorf("FNR = %g", got)
	}
}

func TestConfusionZeroDenominators(t *testing.T) {
	var c Confusion
	if c.Recall() != 0 || c.FalsePositiveRate() != 0 || c.FalseNegativeRate() != 0 {
		t.Fatal("zero confusion matrix produced nonzero rates")
	}
}

func TestUtilityFormula(t *testing.T) {
	// U = 1 - [w*FN + (1-w)*FP], paper §6.1.
	if got := Utility(0, 0, 0.4); got != 1 {
		t.Fatalf("perfect detector utility = %g", got)
	}
	if got := Utility(1, 1, 0.4); got != 0 {
		t.Fatalf("worst detector utility = %g", got)
	}
	want := 1 - (0.4*0.5 + 0.6*0.1)
	if got := Utility(0.5, 0.1, 0.4); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Utility(0.5,0.1,0.4) = %g, want %g", got, want)
	}
}

func TestUtilityBounds(t *testing.T) {
	f := func(a, b, c uint8) bool {
		fn := float64(a) / 255
		fp := float64(b) / 255
		w := float64(c) / 255
		u := Utility(fn, fp, w)
		return u >= -1e-12 && u <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBoxplotKnown(t *testing.T) {
	b, err := NewBoxplot([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100})
	if err != nil {
		t.Fatal(err)
	}
	if b.N != 10 || b.Min != 1 || b.Max != 100 {
		t.Fatalf("boxplot extremes: %+v", b)
	}
	if b.Median != 5.5 {
		t.Fatalf("median = %g, want 5.5", b.Median)
	}
	if len(b.Outliers) != 1 || b.Outliers[0] != 100 {
		t.Fatalf("outliers = %v, want [100]", b.Outliers)
	}
	if b.WhiskerHi != 9 {
		t.Fatalf("upper whisker = %g, want 9", b.WhiskerHi)
	}
}

func TestBoxplotInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := r.Intn(100) + 1
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = r.LogNormal(0, 2)
		}
		b, err := NewBoxplot(vals)
		if err != nil {
			return false
		}
		return b.Min <= b.Q1 && b.Q1 <= b.Median &&
			b.Median <= b.Q3 && b.Q3 <= b.Max &&
			b.WhiskerLo <= b.WhiskerHi &&
			b.N == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBoxplotEmpty(t *testing.T) {
	if _, err := NewBoxplot(nil); err == nil {
		t.Fatal("empty boxplot did not error")
	}
}

func TestBoxplotString(t *testing.T) {
	b, _ := NewBoxplot([]float64{1, 2, 3})
	if s := b.String(); s == "" {
		t.Fatal("empty String()")
	}
}
