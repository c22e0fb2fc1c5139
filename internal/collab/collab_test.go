package collab

import (
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/stats"
	"repro/internal/trace"
)

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Quorum: 0}); err == nil {
		t.Fatal("quorum 0 accepted")
	}
	if _, err := New(Config{Quorum: 1, SentinelWeight: -1}); err == nil {
		t.Fatal("negative weight accepted")
	}
	if d, err := New(Config{Quorum: 2}); err != nil || d == nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestVotesAndEvents(t *testing.T) {
	d, err := New(Config{Quorum: 2})
	if err != nil {
		t.Fatal(err)
	}
	alarms := [][]bool{
		{true, false, true, false},
		{true, false, false, false},
		{false, false, true, false},
	}
	votes, err := d.Votes(alarms)
	if err != nil {
		t.Fatal(err)
	}
	wantVotes := []int{2, 0, 2, 0}
	for b := range wantVotes {
		if votes[b] != wantVotes[b] {
			t.Fatalf("votes = %v, want %v", votes, wantVotes)
		}
	}
	events, err := d.Events(alarms)
	if err != nil {
		t.Fatal(err)
	}
	wantEvents := []bool{true, false, true, false}
	for b := range wantEvents {
		if events[b] != wantEvents[b] {
			t.Fatalf("events = %v, want %v", events, wantEvents)
		}
	}
}

func TestSentinelWeight(t *testing.T) {
	d, err := New(Config{Quorum: 3, SentinelWeight: 3, Sentinels: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	// Only the sentinel alarms: its weight alone meets the quorum.
	alarms := [][]bool{
		{false},
		{true},
		{false},
	}
	events, err := d.Events(alarms)
	if err != nil {
		t.Fatal(err)
	}
	if !events[0] {
		t.Fatal("sentinel vote did not trigger event")
	}
}

// TestQuorumBoundary pins the exact quorum semantics: v >= Quorum
// declares an event, v == Quorum-1 does not. One vote must never be
// the difference between "met" and "nearly met" silently.
func TestQuorumBoundary(t *testing.T) {
	d, err := New(Config{Quorum: 3})
	if err != nil {
		t.Fatal(err)
	}
	alarms := [][]bool{
		// window 0: exactly 3 of 4 hosts alarm (quorum exactly met);
		// window 1: 2 of 4 (one short); window 2: all 4 (exceeded).
		{true, true, true},
		{true, true, true},
		{true, false, true},
		{false, false, true},
	}
	events, err := d.Events(alarms)
	if err != nil {
		t.Fatal(err)
	}
	if !events[0] {
		t.Error("quorum exactly met did not declare an event")
	}
	if events[1] {
		t.Error("one vote short of quorum declared an event")
	}
	if !events[2] {
		t.Error("quorum exceeded did not declare an event")
	}
}

// TestSentinelAloneMeetsQuorum covers the sentinel-dominance edge:
// when SentinelWeight >= Quorum, a single sentinel vote is a fleet
// event on its own, while a lone ordinary host stays below quorum.
func TestSentinelAloneMeetsQuorum(t *testing.T) {
	d, err := New(Config{Quorum: 4, SentinelWeight: 4, Sentinels: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	alarms := [][]bool{
		{true, false}, // ordinary host alone: no event
		{false, false},
		{false, true}, // sentinel alone: event
	}
	votes, err := d.Votes(alarms)
	if err != nil {
		t.Fatal(err)
	}
	if votes[0] != 1 || votes[1] != 4 {
		t.Fatalf("votes = %v, want [1 4]", votes)
	}
	events, err := d.Events(alarms)
	if err != nil {
		t.Fatal(err)
	}
	if events[0] || !events[1] {
		t.Fatalf("events = %v, want [false true]", events)
	}
}

// TestTallyDeduplicatesVotes checks that duplicate alarm reports from
// the same host in one window — a re-flushed batch after a
// reconnect, a duplicated frame — are counted once: votes come from
// the deduplicated matrix, so quorum cannot be gamed by repetition.
func TestTallyDeduplicatesVotes(t *testing.T) {
	tally, err := NewTally(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Host 0 reports window 0 three times; host 1 once.
	for i := 0; i < 3; i++ {
		if err := tally.Mark(0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := tally.Mark(1, 0); err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{Quorum: 3})
	if err != nil {
		t.Fatal(err)
	}
	votes, err := d.Votes(tally.Alarms())
	if err != nil {
		t.Fatal(err)
	}
	if votes[0] != 2 {
		t.Fatalf("votes[0] = %d, want 2 (duplicates must collapse)", votes[0])
	}
	events, err := d.Events(tally.Alarms())
	if err != nil {
		t.Fatal(err)
	}
	if events[0] {
		t.Fatal("duplicate votes from one host reached quorum")
	}
}

// TestTallyValidation covers the tally's bounds checking.
func TestTallyValidation(t *testing.T) {
	if _, err := NewTally(0, 5); err == nil {
		t.Fatal("zero hosts accepted")
	}
	if _, err := NewTally(2, 0); err == nil {
		t.Fatal("zero windows accepted")
	}
	tally, err := NewTally(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tally.Mark(2, 0); err == nil {
		t.Fatal("out-of-range host accepted")
	}
	if err := tally.Mark(0, 3); err == nil {
		t.Fatal("out-of-range window accepted")
	}
	if err := tally.Mark(-1, 0); err == nil {
		t.Fatal("negative host accepted")
	}
}

func TestVotesErrors(t *testing.T) {
	d, _ := New(Config{Quorum: 1})
	if _, err := d.Votes(nil); err == nil {
		t.Fatal("empty fleet accepted")
	}
	if _, err := d.Votes([][]bool{{true}, {true, false}}); err == nil {
		t.Fatal("ragged series accepted")
	}
}

func TestEvaluateConfusion(t *testing.T) {
	d, _ := New(Config{Quorum: 1})
	alarms := [][]bool{{true, false, true, false}}
	attacked := []bool{true, true, false, false}
	c, err := d.Evaluate(alarms, attacked)
	if err != nil {
		t.Fatal(err)
	}
	want := stats.Confusion{TP: 1, FN: 1, FP: 1, TN: 1}
	if c != want {
		t.Fatalf("confusion = %+v", c)
	}
	if _, err := d.Evaluate(alarms, []bool{true}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

// TestCollaborationCompensatesForPoorDetectors reproduces the paper's
// §6.2 observation on generated data: under full diversity some users
// have poor individual detection of the Storm bot, but "those users
// with high detection rates can inform other users when malicious
// events occur" — the fleet-level detection rate beats the median
// individual rate, while fleet-level false positives stay controlled.
func TestCollaborationCompensatesForPoorDetectors(t *testing.T) {
	pop := trace.MustPopulation(trace.Config{Users: 40, Weeks: 2, Seed: 71})
	f := features.Distinct
	var train, test [][]float64
	for _, u := range pop.Users {
		m := u.Series()
		lo0, hi0 := m.WeekRange(0)
		lo1, hi1 := m.WeekRange(1)
		train = append(train, m.ColumnSlice(f, lo0, hi0))
		test = append(test, m.ColumnSlice(f, lo1, hi1))
	}
	dists := make([]*stats.Empirical, len(train))
	for u := range dists {
		var err error
		if dists[u], err = stats.NewEmpirical(train[u]); err != nil {
			t.Fatal(err)
		}
	}
	asn, err := core.Configure(dists, core.Policy{
		Heuristic: core.Percentile{Q: 0.99}, Grouping: core.FullDiversity{}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	bot, err := attack.NewStorm(attack.StormConfig{Bins: len(test[0]), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	overlay := bot.Overlay().Overlay

	// Individual detection rates.
	var detRates []float64
	for u := range test {
		conf, err := core.Evaluate(test[u], overlay, asn.Thresholds[u])
		if err != nil {
			t.Fatal(err)
		}
		detRates = append(detRates, conf.Recall())
	}
	medianDet := stats.MustEmpirical(detRates).MustQuantile(0.5)

	// Collaborative fleet detection with a small quorum and the
	// Table-2 sentinels carrying double weight.
	alarms := alarmMatrix(test, overlay, asn.Thresholds)
	attacked := make([]bool, len(overlay))
	for b, v := range overlay {
		attacked[b] = v > 0
	}
	d, err := New(Config{Quorum: 5, SentinelWeight: 2, Sentinels: asn.BestUsers(10)})
	if err != nil {
		t.Fatal(err)
	}
	conf, err := d.Evaluate(alarms, attacked)
	if err != nil {
		t.Fatal(err)
	}
	fleetDet := conf.Recall()
	if fleetDet <= medianDet {
		t.Fatalf("fleet detection %.2f not above median individual %.2f", fleetDet, medianDet)
	}
	// Fleet-level false positives on clean windows must stay rare.
	cleanAlarms := alarmMatrix(test, nil, asn.Thresholds)
	cleanEvents, err := d.Events(cleanAlarms)
	if err != nil {
		t.Fatal(err)
	}
	fp := 0
	for _, ev := range cleanEvents {
		if ev {
			fp++
		}
	}
	if frac := float64(fp) / float64(len(cleanEvents)); frac > 0.05 {
		t.Fatalf("fleet false-event rate %.3f too high", frac)
	}
}

// alarmMatrix marks window b of host u when test[u][b] + overlay[b]
// exceeds the host's threshold; overlay may be nil (no attack).
func alarmMatrix(test [][]float64, overlay, thresholds []float64) [][]bool {
	out := make([][]bool, len(test))
	for u, series := range test {
		out[u] = make([]bool, len(series))
		for b, v := range series {
			if overlay != nil {
				v += overlay[b]
			}
			out[u][b] = v > thresholds[u]
		}
	}
	return out
}
