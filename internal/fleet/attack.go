package fleet

import (
	"fmt"
	"time"

	"repro/internal/attack"
	"repro/internal/features"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// AttackKind selects the threat model injected into a fleet run.
type AttackKind int

// The supported attack campaigns, mirroring internal/attack.
const (
	// AttackNone runs a clean fleet (false-positive measurement).
	AttackNone AttackKind = iota
	// AttackNaive injects a constant additive size into the attacked
	// window range of every victim (§6.1, Fig 4a).
	AttackNaive
	// AttackMimicry has the resourceful attacker profile each victim's
	// training distribution and send the largest volume that evades
	// its pushed threshold with probability EvadeProb (§6.2, Fig 4b).
	AttackMimicry
	// AttackStorm overlays a synthesized Storm-zombie activity series
	// on every victim (Fig 5).
	AttackStorm
)

// AttackPlan describes one campaign against a fleet: which threat
// model, on which feature, against which victims, over which windows
// of the test week. The zero value means no attack.
type AttackPlan struct {
	// Kind selects the threat model.
	Kind AttackKind
	// Feature is the attacked feature.
	Feature features.Feature
	// Size is the naive attacker's constant per-window volume.
	Size float64
	// EvadeProb is the mimicry attacker's per-window evasion target
	// (the paper uses 0.9).
	EvadeProb float64
	// FromBin/ToBin bound the attacked window range within the test
	// week, half-open; both zero means the whole week.
	FromBin, ToBin int
	// VictimFraction is the fraction of the fleet compromised, drawn
	// with Seed; zero means everyone.
	VictimFraction float64
	// Seed drives victim selection and Storm synthesis.
	Seed uint64
}

// active reports whether the plan injects anything.
func (p *AttackPlan) active() bool { return p != nil && p.Kind != AttackNone }

// window returns the attacked bin range clamped to [0, bins).
func (p *AttackPlan) window(bins int) (from, to int) {
	from, to = p.FromBin, p.ToBin
	if from == 0 && to == 0 {
		return 0, bins
	}
	if from < 0 {
		from = 0
	}
	if to > bins {
		to = bins
	}
	return from, to
}

// victimSet resolves the victim subset deterministically: a seeded
// sample of VictimFraction of the fleet (everyone when the fraction is
// zero).
func (p *AttackPlan) victimSet(users int) (map[int]bool, error) {
	set := make(map[int]bool)
	if p.VictimFraction < 0 || p.VictimFraction > 1 {
		return nil, fmt.Errorf("fleet: victim fraction %g outside [0, 1]", p.VictimFraction)
	}
	if p.VictimFraction == 0 {
		for u := 0; u < users; u++ {
			set[u] = true
		}
		return set, nil
	}
	n := int(float64(users) * p.VictimFraction)
	if n < 1 {
		n = 1
	}
	// Salt the seed so victim selection and Storm synthesis draw from
	// unrelated streams even when both use the same plan seed.
	perm := xrand.New(p.Seed ^ 0x71c71c71).Perm(users)
	for _, u := range perm[:n] {
		set[u] = true
	}
	return set, nil
}

// stormSeries synthesizes the shared Storm activity series for a
// test week of the given geometry (every victim hosts the same bot,
// as in the paper's overlay methodology).
func (p *AttackPlan) stormSeries(bins int, binWidth time.Duration) ([]float64, error) {
	bot, err := attack.NewStorm(attack.StormConfig{
		Bins:     bins,
		BinWidth: binWidth,
		Seed:     p.Seed,
	})
	if err != nil {
		return nil, err
	}
	return bot.Overlay().Overlay, nil
}

// overlayFor builds victim u's additive overlay for a test week of
// bins windows. storm is the shared Storm series (nil unless Kind is
// AttackStorm); trainDist and threshold feed the mimicry attacker and
// may be nil/0 otherwise. A non-victim gets a nil overlay.
func (p *AttackPlan) overlayFor(u int, victims map[int]bool, bins int, storm []float64, trainDist *stats.Empirical, threshold float64) ([]float64, error) {
	if !p.active() || !victims[u] {
		return nil, nil
	}
	from, to := p.window(bins)
	if from >= to {
		return nil, fmt.Errorf("fleet: attack window [%d, %d) is empty", from, to)
	}
	switch p.Kind {
	case AttackNaive:
		ov, err := attack.Naive(bins, from, to, p.Size)
		if err != nil {
			return nil, err
		}
		return ov.Overlay, nil
	case AttackMimicry:
		size, err := attack.MimicrySize(trainDist, threshold, p.EvadeProb)
		if err != nil {
			return nil, err
		}
		ov := make([]float64, bins)
		for b := from; b < to; b++ {
			ov[b] = size
		}
		return ov, nil
	case AttackStorm:
		ov := make([]float64, bins)
		for b := from; b < to; b++ {
			ov[b] = storm[b]
		}
		return ov, nil
	default:
		return nil, fmt.Errorf("fleet: unknown attack kind %d", int(p.Kind))
	}
}

// AttackedWindows returns the boolean positives series of the plan: a
// window is attacked when any victim carries a positive overlay in
// it. For constant-size plans this is simply [FromBin, ToBin); for
// Storm it excludes the (rare) zero-activity windows, matching the
// positives definition core.Evaluate uses (overlay > 0).
func (p *AttackPlan) AttackedWindows(bins int, storm []float64) []bool {
	out := make([]bool, bins)
	if !p.active() {
		return out
	}
	from, to := p.window(bins)
	for b := from; b < to; b++ {
		if p.Kind == AttackStorm {
			out[b] = storm[b] > 0
		} else {
			out[b] = true
		}
	}
	return out
}
