package core

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// Heuristic selects an alarm threshold from a training distribution.
// The attack argument supplies representative additive attack
// magnitudes for heuristics that optimize a detection objective
// (utility, F-measure); percentile- and moment-based heuristics
// ignore it. Implementations must be deterministic.
type Heuristic interface {
	// Name identifies the heuristic in reports and wire messages.
	Name() string
	// Threshold computes the alarm threshold for a (user or group)
	// training distribution.
	Threshold(train *stats.Empirical, attack []float64) (float64, error)
}

// Percentile is the paper's default heuristic: threshold at the q-th
// quantile of the training distribution, giving explicit control of
// the false-positive rate ("a common choice by IT operators today is
// to roughly target the 99th percentile value").
type Percentile struct {
	// Q is the quantile in [0, 1], e.g. 0.99.
	Q float64
}

// Name implements Heuristic.
func (p Percentile) Name() string { return fmt.Sprintf("percentile(%g)", p.Q*100) }

// Threshold implements Heuristic.
func (p Percentile) Threshold(train *stats.Empirical, _ []float64) (float64, error) {
	return train.Quantile(p.Q)
}

// MeanSigma sets the threshold at mean + K standard deviations, the
// "outliers are the mean plus a few standard deviations" heuristic
// the paper lists in §4.
type MeanSigma struct {
	// K is the number of standard deviations above the mean.
	K float64
}

// Name implements Heuristic.
func (m MeanSigma) Name() string { return fmt.Sprintf("mean+%gσ", m.K) }

// Threshold implements Heuristic.
func (m MeanSigma) Threshold(train *stats.Empirical, _ []float64) (float64, error) {
	if train == nil || train.N() == 0 {
		return 0, stats.ErrNoSamples
	}
	return m.threshold(train.Mean(), train.StdDev()), nil
}

// threshold is the one mean + K·σ expression, shared with StreamPlan's
// accumulator path so both round alike.
func (m MeanSigma) threshold(mean, sd float64) float64 { return mean + m.K*sd }

// FrontierScorer is a Heuristic that selects its threshold by
// maximizing an objective over the threshold frontier (stats.Frontier
// — the exact ⟨threshold, fp, fn⟩ triples of every candidate
// threshold). Implementations live in this package; StreamPlan
// type-asserts on it to score a group's compressed frontier. Both
// maximizations stop the sweep early through bound.
type FrontierScorer interface {
	Heuristic
	// Score evaluates the objective at one frontier operating point;
	// the heuristic's threshold is the frontier point maximizing it.
	Score(fp, fn float64) float64
	// bound returns an upper bound on Score(fp', fn') over every
	// fn' >= fn and fp' >= 0 — every later candidate of a sweep, whose
	// fn never decreases and whose fp is never negative — or +Inf
	// when the objective has none (Frontier.Maximize's bound).
	bound(fn float64) float64
	// validateScorer checks the heuristic's parameters, returning the
	// same error Threshold would.
	validateScorer() error
}

// UtilityOptimal picks the threshold maximizing the paper's utility
//
//	U(T) = 1 − [w·FN(T) + (1−w)·FP(T)]
//
// where FP(T) = P(g > T) on the training distribution and FN(T) is
// the average over the supplied attack magnitudes b of P(g + b ≤ T).
// This is the "picking a threshold to optimize a utility function"
// heuristic of §4 and the one used for Fig 3(a) with w = 0.4.
type UtilityOptimal struct {
	// W is the false-negative weight in [0, 1].
	W float64
}

// Name implements Heuristic.
func (u UtilityOptimal) Name() string { return fmt.Sprintf("utility(w=%g)", u.W) }

// Score implements FrontierScorer.
func (u UtilityOptimal) Score(fp, fn float64) float64 {
	return stats.Utility(fn, fp, u.W)
}

// bound implements FrontierScorer: 1 − w·fn. A later candidate has
// w·fn' >= w·fn and (1−w)·fp' >= 0 (w is in [0, 1]), and rounding is
// monotone, so its rounded sum is at least the rounded w·fn however
// the products are rounded or fused; the explicit conversion keeps
// this product from being fused into the subtraction.
func (u UtilityOptimal) bound(fn float64) float64 { return 1 - float64(u.W*fn) }

func (u UtilityOptimal) validateScorer() error {
	if u.W < 0 || u.W > 1 {
		return fmt.Errorf("core: utility weight %g outside [0, 1]", u.W)
	}
	return nil
}

// Threshold implements Heuristic.
func (u UtilityOptimal) Threshold(train *stats.Empirical, attack []float64) (float64, error) {
	if err := u.validateScorer(); err != nil {
		return 0, err
	}
	return maximizeOverFrontier(train, attack, u)
}

// FMeasureOptimal picks the threshold maximizing the F1 measure (the
// harmonic mean of precision and recall, §4 footnote 1), assuming
// attacked and benign windows are equally likely a priori.
type FMeasureOptimal struct{}

// Name implements Heuristic.
func (FMeasureOptimal) Name() string { return "f-measure" }

// Score implements FrontierScorer.
func (FMeasureOptimal) Score(fp, fn float64) float64 {
	recall := 1 - fn
	// Equal priors: P(attack) = P(benign) = 0.5, so precision =
	// recall / (recall + fp).
	if recall+fp == 0 {
		return 0
	}
	precision := recall / (recall + fp)
	if precision <= 0 || recall <= 0 {
		return 0
	}
	return 2 * precision * recall / (precision + recall)
}

// bound implements FrontierScorer: F1 has no exact float bound in fn
// alone, so its sweeps run in full.
func (FMeasureOptimal) bound(float64) float64 { return math.Inf(1) }

func (FMeasureOptimal) validateScorer() error { return nil }

// Threshold implements Heuristic.
func (m FMeasureOptimal) Threshold(train *stats.Empirical, attack []float64) (float64, error) {
	return maximizeOverFrontier(train, attack, m)
}

// maximizeOverFrontier builds a (pooled) threshold frontier over the
// training distribution and returns the candidate maximizing the
// scorer's objective, stopping the sweep at its bound. The frontier
// enumerates exactly the candidate set the pre-frontier brute-force
// scan used — every training sample plus every coarse attack-shifted
// quantile — so thresholds are bit-identical to it; the merge-sweep
// just computes all operating points in one pass instead of
// 1+|attack| binary searches per candidate over a freshly built,
// sorted candidate map.
func maximizeOverFrontier(train *stats.Empirical, attack []float64, h FrontierScorer) (float64, error) {
	if train == nil || train.N() == 0 {
		return 0, stats.ErrNoSamples
	}
	if len(attack) == 0 {
		return 0, fmt.Errorf("core: objective-optimizing heuristic requires attack magnitudes")
	}
	fr, err := stats.AcquireFrontier(train, attack)
	if err != nil {
		return 0, err
	}
	defer fr.Release()
	return fr.Maximize(h.Score, h.bound), nil
}
