package core

import (
	"fmt"

	"repro/internal/par"
	"repro/internal/stats"
)

// EvalInput bundles everything needed to score one policy on one
// feature, following the paper's methodology (§6.1): thresholds are
// learned on a training week and applied to the following test week.
type EvalInput struct {
	// Train holds each user's training-week feature series. It may be
	// nil when TrainDists or Assignment is supplied instead.
	Train [][]float64
	// TrainDists optionally supplies pre-built training
	// distributions, skipping the per-call copy-and-sort of Train.
	// The analysis workspace passes its memoized per-user
	// distributions here. When set, Train is ignored for
	// configuration (Test still defines the population size).
	TrainDists []*stats.Empirical
	// Test holds each user's test-week feature series (same user
	// order as Train).
	Test [][]float64
	// Attack optionally holds each user's additive attack overlay,
	// aligned with Test; Attack == nil or Attack[i] == nil means no
	// attack on that user. Windows with a positive overlay are the
	// positives for FN accounting.
	Attack [][]float64
	// AttackMagnitudes supplies representative per-window attack
	// sizes to objective-optimizing heuristics (UtilityOptimal,
	// FMeasureOptimal). May be nil for Percentile / MeanSigma.
	AttackMagnitudes []float64
	// Policy is the configuration policy under evaluation.
	Policy Policy
	// Assignment optionally supplies a pre-configured assignment
	// (e.g. a cached one); when set, Configure is skipped entirely
	// and Policy is only used for labeling.
	Assignment *Assignment
	// Workers bounds the per-user scoring fan-out; < 1 means one
	// worker per CPU. Results are deterministic regardless of the
	// worker count.
	Workers int
}

// EvalResult is the outcome of one policy evaluation.
type EvalResult struct {
	// Assignment records the thresholds and groups the policy chose.
	Assignment *Assignment
	// Points holds one operating point per user.
	Points []OperatingPoint
}

// EvaluatePolicy learns thresholds on Train with the policy (or
// adopts a pre-configured Assignment) and scores them on Test
// (+Attack). The per-user scoring loop fans out over a bounded
// worker pool; each worker writes only its own user's slot, so the
// result is identical to the serial evaluation.
func EvaluatePolicy(in EvalInput) (*EvalResult, error) {
	n := len(in.Test)
	if n == 0 {
		return nil, fmt.Errorf("core: empty test population")
	}
	if in.Attack != nil && len(in.Attack) != n {
		return nil, fmt.Errorf("core: attack population %d != %d", len(in.Attack), n)
	}
	asn := in.Assignment
	if asn == nil {
		dists := in.TrainDists
		if dists == nil {
			if len(in.Train) != n {
				return nil, fmt.Errorf("core: train/test population mismatch: %d vs %d", len(in.Train), n)
			}
			dists = make([]*stats.Empirical, n)
			err := par.ForEachErr(n, in.Workers, func(i int) error {
				d, err := stats.NewEmpirical(in.Train[i])
				if err != nil {
					return fmt.Errorf("core: user %d training series: %w", i, err)
				}
				dists[i] = d
				return nil
			})
			if err != nil {
				return nil, err
			}
		} else if len(dists) != n {
			return nil, fmt.Errorf("core: train/test population mismatch: %d vs %d", len(dists), n)
		}
		var err error
		if asn, err = Configure(dists, in.Policy, in.AttackMagnitudes); err != nil {
			return nil, err
		}
	}
	if len(asn.Thresholds) != n {
		return nil, fmt.Errorf("core: assignment covers %d users, test has %d", len(asn.Thresholds), n)
	}
	res := &EvalResult{Assignment: asn, Points: make([]OperatingPoint, n)}
	err := par.ForEachErr(n, in.Workers, func(i int) error {
		var attack []float64
		if in.Attack != nil {
			attack = in.Attack[i]
		}
		pt, err := ScorePoint(i, in.Test[i], attack, asn.Thresholds[i])
		if err != nil {
			return err
		}
		res.Points[i] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// ScorePoint scores one user's test column (plus optional additive
// attack overlay) against a threshold, returning the operating point
// EvaluatePolicy records for that user. It is the per-user unit of the
// scoring loop, exported so streaming evaluators can score a mapped
// snapshot shard by shard without materializing the whole test
// population.
func ScorePoint(u int, test, attack []float64, thr float64) (OperatingPoint, error) {
	conf, err := Evaluate(test, attack, thr)
	if err != nil {
		return OperatingPoint{}, fmt.Errorf("core: user %d: %w", u, err)
	}
	return pointOf(u, thr, conf), nil
}

// SortedPoint is ScorePoint counted from the user's sorted test column
// and the attacked windows alone. attacked is the number of windows
// with a > 0; of those, tp have g+a > thr and fpAttacked have g > thr.
// A window with a = 0 alarms exactly when g > thr, so FP is the number
// of sorted values above thr (one binary search) less fpAttacked,
// FN = attacked − tp and TN the rest. The point is bit-identical to
// ScorePoint(u, test, attack, thr) for any test column holding the same
// values as sorted; with no attack every count is 0.
func SortedPoint(u int, sorted []float64, thr float64, attacked, tp, fpAttacked int) OperatingPoint {
	fp := stats.CountAboveSorted(sorted, thr) - fpAttacked
	return pointOf(u, thr, stats.Confusion{TP: tp, FN: attacked - tp, FP: fp, TN: len(sorted) - attacked - fp})
}

// pointOf is the one OperatingPoint constructor: a user's confusion
// counts at a threshold and the rates derived from them.
func pointOf(u int, thr float64, conf stats.Confusion) OperatingPoint {
	return OperatingPoint{
		User:      u,
		Threshold: thr,
		FP:        conf.FalsePositiveRate(),
		FN:        conf.FalseNegativeRate(),
		Confusion: conf,
	}
}

// Utilities returns every user's utility for weight w.
func (r *EvalResult) Utilities(w float64) []float64 {
	out := make([]float64, len(r.Points))
	for i, p := range r.Points {
		out[i] = p.Utility(w)
	}
	return out
}

// MeanUtility returns the system-wide utility: the average per-host
// utility across the population (§6.1 "system wide utility metric").
func (r *EvalResult) MeanUtility(w float64) float64 {
	return stats.Mean(r.Utilities(w))
}

// TotalFalseAlarms sums false-positive windows across the population
// — the number of benign alerts arriving at the central IT console
// over the test period (Table 3).
func (r *EvalResult) TotalFalseAlarms() int {
	n := 0
	for _, p := range r.Points {
		n += p.Confusion.FP
	}
	return n
}
