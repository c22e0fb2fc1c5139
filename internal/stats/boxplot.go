package stats

import "fmt"

// Boxplot is the five-number summary plus Tukey whiskers and outliers,
// matching what the paper's Fig 3(a) and Fig 4(b) render.
type Boxplot struct {
	Min, Q1, Median, Q3, Max float64
	// WhiskerLo/WhiskerHi are the most extreme samples within 1.5 IQR
	// of the quartiles (standard Tukey whiskers).
	WhiskerLo, WhiskerHi float64
	// Outliers holds samples beyond the whiskers, in ascending order.
	Outliers []float64
	N        int
}

// NewBoxplot computes a boxplot summary of samples.
func NewBoxplot(samples []float64) (Boxplot, error) {
	e, err := NewEmpirical(samples)
	if err != nil {
		return Boxplot{}, err
	}
	return BoxplotOf(e), nil
}

// BoxplotOf computes a boxplot summary of an existing empirical
// distribution.
func BoxplotOf(e *Empirical) Boxplot {
	b := Boxplot{
		Min:    e.Min(),
		Q1:     e.MustQuantile(0.25),
		Median: e.MustQuantile(0.5),
		Q3:     e.MustQuantile(0.75),
		Max:    e.Max(),
		N:      e.N(),
	}
	iqr := b.Q3 - b.Q1
	loFence := b.Q1 - 1.5*iqr
	hiFence := b.Q3 + 1.5*iqr
	b.WhiskerLo, b.WhiskerHi = b.Max, b.Min
	for _, v := range e.sorted {
		if v < loFence || v > hiFence {
			b.Outliers = append(b.Outliers, v)
			continue
		}
		if v < b.WhiskerLo {
			b.WhiskerLo = v
		}
		if v > b.WhiskerHi {
			b.WhiskerHi = v
		}
	}
	if b.WhiskerLo > b.WhiskerHi { // every sample was an outlier (degenerate)
		b.WhiskerLo, b.WhiskerHi = b.Median, b.Median
	}
	return b
}

// String renders the summary on one line, suitable for the textual
// "figures" produced by cmd/experiments.
func (b Boxplot) String() string {
	return fmt.Sprintf("n=%d min=%.4g q1=%.4g med=%.4g q3=%.4g max=%.4g whiskers=[%.4g, %.4g] outliers=%d",
		b.N, b.Min, b.Q1, b.Median, b.Q3, b.Max, b.WhiskerLo, b.WhiskerHi, len(b.Outliers))
}
