// Package core implements the paper's primary contribution: the
// behavioral HIDS threshold detector, the threshold-selection
// heuristics, the configuration policies (homogeneous monoculture,
// full diversity, partial diversity), and the false-positive /
// false-negative / utility evaluation machinery of §3-§6.
//
// The pieces compose as in the paper:
//
//	policy   = heuristic × grouping            (§4)
//	Configure(users, policy)  -> per-user thresholds
//	Evaluate(test, attack, T) -> ⟨FP_i, FN_i⟩  (§6.1)
//	stats.Utility(FN, FP, w)  -> U_i           (§6.1)
package core

import (
	"fmt"

	"repro/internal/features"
	"repro/internal/stats"
)

// Detector is a single-feature threshold anomaly detector: it raises
// an alert for any window whose feature value strictly exceeds the
// threshold (the paper's "if g + b > T, an alarm is raised").
type Detector struct {
	// Feature is the monitored traffic feature.
	Feature features.Feature
	// Threshold is the alarm threshold T_i^j.
	Threshold float64
}

// Alarm reports whether one window's feature value raises an alert.
func (d Detector) Alarm(value float64) bool { return value > d.Threshold }

// Evaluate classifies every window of a test series against a
// threshold. attack[b] is the additive malicious traffic overlaid on
// window b (zero for benign windows); attack may be nil for an
// all-benign evaluation. The observable value of window b is
// benign[b] + attack[b], per the paper's additive threat model.
//
// Windows with attack > 0 are positives; an alarm on a positive
// window is a true positive, an alarm on a benign window a false
// positive.
func Evaluate(benign, attack []float64, threshold float64) (stats.Confusion, error) {
	if attack != nil && len(attack) != len(benign) {
		return stats.Confusion{}, fmt.Errorf("core: attack series length %d != benign %d", len(attack), len(benign))
	}
	var c stats.Confusion
	for b, g := range benign {
		var a float64
		if attack != nil {
			a = attack[b]
		}
		alarm := g+a > threshold
		switch {
		case a > 0 && alarm:
			c.TP++
		case a > 0 && !alarm:
			c.FN++
		case a == 0 && alarm:
			c.FP++
		default:
			c.TN++
		}
	}
	return c, nil
}

// OperatingPoint is one user's ⟨FN_i, FP_i⟩ performance tuple (§6.1)
// plus the utility that summarizes it.
type OperatingPoint struct {
	User      int
	Threshold float64
	FP        float64
	FN        float64
	Confusion stats.Confusion
}

// Utility returns the paper's per-host utility U_i for weight w.
func (o OperatingPoint) Utility(w float64) float64 {
	return stats.Utility(o.FN, o.FP, w)
}
