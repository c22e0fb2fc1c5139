package stats

// Confusion tallies binary-classification outcomes for a detector:
// positives are windows that contain attack traffic, and a "positive"
// prediction is a raised alarm.
type Confusion struct {
	TP, FP, TN, FN int
}

// Recall returns TP / (TP + FN) — the detection rate — or 0 when
// there were no attack windows.
func (c Confusion) Recall() float64 {
	d := c.TP + c.FN
	if d == 0 {
		return 0
	}
	return float64(c.TP) / float64(d)
}

// FalsePositiveRate returns FP / (FP + TN) — the paper's FP_i — or 0
// when there were no benign windows.
func (c Confusion) FalsePositiveRate() float64 {
	d := c.FP + c.TN
	if d == 0 {
		return 0
	}
	return float64(c.FP) / float64(d)
}

// FalseNegativeRate returns FN / (TP + FN) — the paper's FN_i, the
// missed-detection probability — or 0 when there were no attack
// windows.
func (c Confusion) FalseNegativeRate() float64 {
	d := c.TP + c.FN
	if d == 0 {
		return 0
	}
	return float64(c.FN) / float64(d)
}

// Utility computes the paper's per-host utility
//
//	U_i = 1 − [w·FN_i + (1−w)·FP_i]
//
// for a false-negative rate fn, false-positive rate fp and weight w in
// [0, 1]. Higher is better; 1 is a perfect detector.
func Utility(fn, fp, w float64) float64 {
	return 1 - (w*fn + (1-w)*fp)
}
