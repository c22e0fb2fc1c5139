// Package collab implements the collaborative detection scheme the
// paper sketches as future work (§5, §7): because personalized
// thresholds make different users sensitive to different attacks
// ("one subset of users surface as sensitive to a particular kind of
// attack... while another subset turns out to be useful for a
// different attack"), users with high detection capability can inform
// the rest when a fleet-wide event is underway.
//
// The scheme here is the simplest credible instantiation: the console
// watches per-window alarm counts across the fleet; when the number
// of hosts alarming on the same feature in the same window reaches a
// quorum, a fleet-wide event is declared and every host is considered
// alerted. Sentinels — the k lowest-threshold hosts for a feature
// (Table 2's "best users") — can optionally carry extra weight.
package collab

import (
	"fmt"
	"math"

	"repro/internal/features"
	"repro/internal/stats"
)

// Config parameterizes the collaborative detector.
type Config struct {
	// Quorum is the number of simultaneously alarming hosts that
	// declares a fleet-wide event. Must be >= 1 unless QuorumFraction
	// is set.
	Quorum int
	// QuorumFraction, when positive, expresses quorum as a fraction of
	// the participating population instead of an absolute count:
	// ceil(fraction × hosts), never below 1 (nor below Quorum when both
	// are set). A degraded fleet that lost agents re-derives a sane
	// quorum from its surviving population this way, instead of
	// demanding votes from the dead. Must be in (0, 1].
	QuorumFraction float64
	// SentinelWeight is the vote weight of sentinel hosts (>= 1;
	// default 1 treats everyone equally).
	SentinelWeight int
	// Sentinels lists the user indices acting as sentinels (the
	// lowest-threshold "best users" for the feature under watch).
	Sentinels []int
}

// ResolveQuorum returns the effective absolute quorum for a
// population of hosts: the larger of Quorum and
// ceil(QuorumFraction × hosts), floored at 1.
func (c Config) ResolveQuorum(hosts int) int {
	q := c.Quorum
	if c.QuorumFraction > 0 {
		if fq := int(math.Ceil(c.QuorumFraction * float64(hosts))); fq > q {
			q = fq
		}
	}
	if q < 1 {
		q = 1
	}
	return q
}

func (c Config) withDefaults() (Config, error) {
	if c.QuorumFraction < 0 || c.QuorumFraction > 1 {
		return c, fmt.Errorf("collab: quorum fraction must be in [0, 1], got %g", c.QuorumFraction)
	}
	if c.Quorum < 1 && c.QuorumFraction == 0 {
		return c, fmt.Errorf("collab: quorum must be >= 1, got %d", c.Quorum)
	}
	if c.Quorum < 0 {
		return c, fmt.Errorf("collab: quorum must not be negative, got %d", c.Quorum)
	}
	if c.SentinelWeight == 0 {
		c.SentinelWeight = 1
	}
	if c.SentinelWeight < 1 {
		return c, fmt.Errorf("collab: sentinel weight must be >= 1, got %d", c.SentinelWeight)
	}
	return c, nil
}

// Detector evaluates fleet-wide events from per-host alarm series.
type Detector struct {
	cfg      Config
	sentinel map[int]bool
}

// New creates a collaborative detector.
func New(cfg Config) (*Detector, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	d := &Detector{cfg: cfg, sentinel: make(map[int]bool, len(cfg.Sentinels))}
	for _, u := range cfg.Sentinels {
		d.sentinel[u] = true
	}
	return d, nil
}

// Feature is the feature type alias re-exported for callers.
type Feature = features.Feature

// Votes returns the per-window weighted alarm count across hosts.
// alarms[u][b] reports whether host u alarmed in window b; all hosts
// must have equal-length series.
func (d *Detector) Votes(alarms [][]bool) ([]int, error) {
	if len(alarms) == 0 {
		return nil, fmt.Errorf("collab: no hosts")
	}
	bins := len(alarms[0])
	votes := make([]int, bins)
	for u, series := range alarms {
		if len(series) != bins {
			return nil, fmt.Errorf("collab: host %d has %d windows, want %d", u, len(series), bins)
		}
		w := 1
		if d.sentinel[u] {
			w = d.cfg.SentinelWeight
		}
		for b, alarm := range series {
			if alarm {
				votes[b] += w
			}
		}
	}
	return votes, nil
}

// Events returns the windows in which the fleet-wide quorum is met.
func (d *Detector) Events(alarms [][]bool) ([]bool, error) {
	votes, err := d.Votes(alarms)
	if err != nil {
		return nil, err
	}
	quorum := d.cfg.ResolveQuorum(len(alarms))
	events := make([]bool, len(votes))
	for b, v := range votes {
		events[b] = v >= quorum
	}
	return events, nil
}

// Evaluate scores collaborative detection of a fleet-wide attack:
// attacked[b] marks windows in which the attack was active on every
// host. A fleet event on an attacked window is a true positive; on a
// clean window, a false positive. The returned confusion is
// fleet-level (one decision per window, not per host).
func (d *Detector) Evaluate(alarms [][]bool, attacked []bool) (stats.Confusion, error) {
	events, err := d.Events(alarms)
	if err != nil {
		return stats.Confusion{}, err
	}
	if len(attacked) != len(events) {
		return stats.Confusion{}, fmt.Errorf("collab: attacked series %d windows, want %d", len(attacked), len(events))
	}
	var c stats.Confusion
	for b, ev := range events {
		switch {
		case attacked[b] && ev:
			c.TP++
		case attacked[b] && !ev:
			c.FN++
		case !attacked[b] && ev:
			c.FP++
		default:
			c.TN++
		}
	}
	return c, nil
}

// Tally accumulates per-(host, window) alarm marks into the boolean
// alarm matrix Votes consumes. Marks are idempotent: a host that
// reports the same window twice — a re-flush after a reconnect, a
// duplicated batch on the wire — still casts a single vote, which
// keeps the quorum honest against double counting.
type Tally struct {
	alarms [][]bool
}

// NewTally creates an all-clear tally for a fleet of hosts observed
// over bins windows.
func NewTally(hosts, bins int) (*Tally, error) {
	if hosts < 1 {
		return nil, fmt.Errorf("collab: tally needs >= 1 host, got %d", hosts)
	}
	if bins < 1 {
		return nil, fmt.Errorf("collab: tally needs >= 1 window, got %d", bins)
	}
	t := &Tally{alarms: make([][]bool, hosts)}
	for u := range t.alarms {
		t.alarms[u] = make([]bool, bins)
	}
	return t, nil
}

// Mark records that host raised an alarm in window bin. Duplicate
// marks are counted once.
func (t *Tally) Mark(host, bin int) error {
	if host < 0 || host >= len(t.alarms) {
		return fmt.Errorf("collab: host %d outside [0, %d)", host, len(t.alarms))
	}
	if bin < 0 || bin >= len(t.alarms[host]) {
		return fmt.Errorf("collab: window %d outside [0, %d)", bin, len(t.alarms[host]))
	}
	t.alarms[host][bin] = true
	return nil
}

// Alarms returns the accumulated alarm matrix. The matrix is shared
// with the tally: callers should be done marking before use.
func (t *Tally) Alarms() [][]bool { return t.alarms }
