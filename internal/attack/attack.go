// Package attack implements the paper's threat models (§3, §6):
//
//   - the naive attacker, who injects a fixed additive amount of
//     traffic per window without knowing the host's behavior
//     (Fig 4a);
//   - the resourceful (mimicry) attacker, who has profiled the host,
//     knows P(g) and the threshold, and sends the largest additive
//     volume that still evades detection with a target probability
//     (Fig 4b);
//   - a Storm-botnet zombie activity synthesizer standing in for the
//     paper's live Storm trace (Fig 5); see DESIGN.md §2 for the
//     substitution rationale.
//
// All attacks are additive in the tracked feature, matching the
// paper's model: the detector sees g + b.
package attack

import (
	"fmt"

	"repro/internal/stats"
)

// Additive is an attack expressed as a per-window additive overlay on
// one feature's series. Zero entries mean "no attack in this window".
type Additive struct {
	// Overlay[b] is the malicious traffic added in window b.
	Overlay []float64
}

// Naive builds the naive attacker of Fig 4(a): a constant additive
// size injected into every window of the range [from, to) of a series
// of length total. The attacker knows nothing about the host, so the
// same size is used regardless of user.
func Naive(total, from, to int, size float64) (Additive, error) {
	if from < 0 || to > total || from >= to {
		return Additive{}, fmt.Errorf("attack: window range [%d, %d) outside [0, %d)", from, to, total)
	}
	if size <= 0 {
		return Additive{}, fmt.Errorf("attack: size must be positive, got %g", size)
	}
	ov := make([]float64, total)
	for b := from; b < to; b++ {
		ov[b] = size
	}
	return Additive{Overlay: ov}, nil
}

// MimicrySize computes the resourceful attacker's per-window volume
// for one host (§6.2): the largest b such that
//
//	P(g + b < T) >= evadeProb
//
// i.e. b = T − Q(g, evadeProb) where Q is the host distribution's
// inverse CDF, clamped at 0 when even b = 0 would be detected too
// often. profile is the attacker's own measurement of the host's
// traffic (the paper's strong threat model assumes the attacker can
// build this histogram on the compromised machine).
func MimicrySize(profile *stats.Empirical, threshold, evadeProb float64) (float64, error) {
	if profile == nil || profile.N() == 0 {
		return 0, stats.ErrNoSamples
	}
	if evadeProb <= 0 || evadeProb > 1 {
		return 0, fmt.Errorf("attack: evade probability %g outside (0, 1]", evadeProb)
	}
	q, err := profile.InverseCDF(evadeProb)
	if err != nil {
		return 0, err
	}
	b := threshold - q
	if b < 0 {
		b = 0
	}
	return b, nil
}

// HiddenTraffic is the attacker-effectiveness metric of Fig 4(b): the
// total undetected volume a mimicry attacker extracts per window from
// one host, i.e. simply its mimicry size. Provided as a named
// function so experiment code reads like the paper.
func HiddenTraffic(profile *stats.Empirical, threshold, evadeProb float64) (float64, error) {
	return MimicrySize(profile, threshold, evadeProb)
}
