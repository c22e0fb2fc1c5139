package fleet

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/collab"
	"repro/internal/console"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/netsim"
	"repro/internal/par"
	"repro/internal/stats"
	"repro/internal/trace"
)

func p99Policy(g core.Grouping) core.Policy {
	return core.Policy{Heuristic: core.Percentile{Q: 0.99}, Grouping: g}
}

// buildMats synthesizes a seeded two-week population's per-user
// matrices. Synthesis is the expensive part of every test here
// (hundreds of millions of per-connection draws at scale), so each
// test generates once and shares the matrices between the fleet run
// (Config.Matrices) and the in-memory workspace it is pinned to.
func buildMats(t testing.TB, users int, seed uint64, binWidth time.Duration) []*features.Matrix {
	t.Helper()
	pop := trace.MustPopulation(trace.Config{
		Users:    users,
		Weeks:    2,
		Seed:     seed,
		BinWidth: binWidth,
	})
	mats := make([]*features.Matrix, users)
	par.ForEach(users, 0, func(u int) {
		mats[u] = pop.Users[u].Series()
	})
	return mats
}

// alarmConfusion scores one host's console-observed alarm series
// against its overlay, with core.Evaluate's classification rules.
func alarmConfusion(alarms []bool, overlay []float64) stats.Confusion {
	var c stats.Confusion
	for b, alarm := range alarms {
		var a float64
		if overlay != nil {
			a = overlay[b]
		}
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
	return c
}

// assertWireMatchesWorkspace pins the distributed path to the
// in-memory path: thresholds pushed over the wire must equal the
// workspace configuration bit for bit on every feature, and the
// console-observed alarm series must reproduce core.EvaluatePolicy's
// per-user confusion exactly.
func assertWireMatchesWorkspace(t *testing.T, cfg Config, ws *analysis.Workspace, res *Result, overlays [][]float64) {
	t.Helper()
	for _, f := range features.All() {
		asn, err := ws.Assignment(f, cfg.TrainWeek, cfg.Policy, cfg.AttackMagnitudes, "wire")
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < cfg.Users; u++ {
			if got, want := res.Thresholds[u][f], asn.Thresholds[u]; got != want {
				t.Fatalf("host %d feature %s: wire threshold %v != workspace %v", u, f, got, want)
			}
		}
	}

	f := res.WatchFeature
	asn, err := ws.Assignment(f, cfg.TrainWeek, cfg.Policy, cfg.AttackMagnitudes, "wire")
	if err != nil {
		t.Fatal(err)
	}
	eval, err := core.EvaluatePolicy(core.EvalInput{
		Test:       ws.Raw(f, cfg.TestWeek),
		Attack:     overlays,
		Policy:     cfg.Policy,
		Assignment: asn,
	})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < cfg.Users; u++ {
		var ov []float64
		if overlays != nil {
			ov = overlays[u]
		}
		got := alarmConfusion(res.Alarms[u], ov)
		if got != eval.Points[u].Confusion {
			t.Fatalf("host %d: wire confusion %+v != in-memory %+v", u, got, eval.Points[u].Confusion)
		}
	}
}

// fleetOverlays rebuilds the per-user overlays a fleet run injected,
// from the same seeded plan and the same workspace data — the
// in-memory mirror of what each agent's OverlayFn computed.
func fleetOverlays(t *testing.T, cfg Config, ws *analysis.Workspace, res *Result) [][]float64 {
	t.Helper()
	if !cfg.Attack.active() {
		return nil
	}
	bins := ws.BinsPerWeek()
	victims, err := cfg.Attack.victimSet(cfg.Users)
	if err != nil {
		t.Fatal(err)
	}
	var storm []float64
	if cfg.Attack.Kind == AttackStorm {
		if storm, err = cfg.Attack.stormSeries(bins, ws.BinWidth()); err != nil {
			t.Fatal(err)
		}
	}
	out := make([][]float64, cfg.Users)
	for u := 0; u < cfg.Users; u++ {
		var trainDist *stats.Empirical
		if cfg.Attack.Kind == AttackMimicry {
			trainDist = ws.Dists(cfg.Attack.Feature, cfg.TrainWeek)[u]
		}
		ov, err := cfg.Attack.overlayFor(u, victims, bins, storm,
			trainDist, res.Thresholds[u][cfg.Attack.Feature])
		if err != nil {
			t.Fatal(err)
		}
		out[u] = ov
	}
	return out
}

// TestFleetWireMatchesWorkspaceClean pins the clean (no-attack)
// distributed pipeline to the in-memory evaluation: every alert the
// console received is a false positive the workspace predicts, and
// vice versa.
func TestFleetWireMatchesWorkspaceClean(t *testing.T) {
	cfg := Config{
		Users:    40,
		Matrices: buildMats(t, 40, 7, time.Hour),
		Policy:   p99Policy(core.FullDiversity{}),
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rcfg, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	assertWireMatchesWorkspace(t, rcfg, analysis.New(cfg.Matrices), res, nil)

	// The console tally for the watch feature alone must be bounded by
	// the all-feature tally it reports per host.
	for u := 0; u < cfg.Users; u++ {
		watch := 0
		for _, alarm := range res.Alarms[u] {
			if alarm {
				watch++
			}
		}
		if watch > res.AlertCounts[u] {
			t.Fatalf("host %d: %d watch-feature alarms but console tallied %d total", u, watch, res.AlertCounts[u])
		}
	}
}

// TestFleetWireMatchesWorkspaceNaive runs a naive additive campaign
// against a victim subset and checks TP/FP/FN/TN equivalence under a
// partial-diversity policy, whose groups the console forms over host
// IDs in ascending order.
func TestFleetWireMatchesWorkspaceNaive(t *testing.T) {
	cfg := Config{
		Users:    30,
		Matrices: buildMats(t, 30, 11, time.Hour),
		Policy:   p99Policy(core.PartialDiversity{NumGroups: 4}),
		Attack: &AttackPlan{
			Kind:           AttackNaive,
			Feature:        features.TCP,
			Size:           500,
			FromBin:        24,
			ToBin:          48,
			VictimFraction: 0.3,
			Seed:           99,
		},
	}
	ws := analysis.New(cfg.Matrices)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rcfg, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	overlays := fleetOverlays(t, rcfg, ws, res)
	nVictims := 0
	for _, ov := range overlays {
		if ov != nil {
			nVictims++
		}
	}
	if want := 9; nVictims != want { // 30 users * 0.3
		t.Fatalf("victims = %d, want %d", nVictims, want)
	}
	assertWireMatchesWorkspace(t, rcfg, ws, res, overlays)
	if got := res.AttackedWindows[24]; !got {
		t.Fatal("window 24 not marked attacked")
	}
	if res.AttackedWindows[23] || res.AttackedWindows[48] {
		t.Fatal("attack window bounds wrong")
	}
}

// TestFleetWireMatchesWorkspaceMimicry checks the resourceful
// attacker path: the per-host mimicry size is computed from the
// wire-pushed threshold, and detection outcomes match the in-memory
// evaluation bit for bit.
func TestFleetWireMatchesWorkspaceMimicry(t *testing.T) {
	cfg := Config{
		Users:    25,
		Matrices: buildMats(t, 25, 13, time.Hour),
		Policy:   p99Policy(core.Homogeneous{}),
		Attack: &AttackPlan{
			Kind:      AttackMimicry,
			Feature:   features.UDP,
			EvadeProb: 0.9,
		},
	}
	ws := analysis.New(cfg.Matrices)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rcfg, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	assertWireMatchesWorkspace(t, rcfg, ws, res, fleetOverlays(t, rcfg, ws, res))
}

// TestFleetCollabQuorum runs a Storm campaign with collaborative
// detection and checks the fleet-event series against the collab
// detector applied directly to the console-observed alarm matrix.
func TestFleetCollabQuorum(t *testing.T) {
	cfg := Config{
		Users:    40,
		Matrices: buildMats(t, 40, 17, time.Hour),
		Policy:   p99Policy(core.FullDiversity{}),
		Attack: &AttackPlan{
			Kind:    AttackStorm,
			Feature: features.Distinct,
			Seed:    5,
		},
		Collab: &collab.Config{Quorum: 5, SentinelWeight: 2, Sentinels: []int{0, 1, 2}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FleetEvents == nil || res.FleetVotes == nil || res.FleetConfusion == nil {
		t.Fatal("collab outputs missing")
	}
	det, err := collab.New(*cfg.Collab)
	if err != nil {
		t.Fatal(err)
	}
	events, err := det.Events(res.Alarms)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, res.FleetEvents) {
		t.Fatal("FleetEvents differ from detector output on the alarm matrix")
	}
	// The Storm bot straddles the fleet's thresholds, so a quorum of 5
	// must fire somewhere during the campaign, and the confusion must
	// cover every test window.
	fired := false
	for _, ev := range res.FleetEvents {
		fired = fired || ev
	}
	if !fired {
		t.Fatal("storm campaign never reached quorum")
	}
	c := *res.FleetConfusion
	if c.TP+c.FN+c.FP+c.TN != res.TestBins {
		t.Fatalf("confusion covers %d windows, want %d", c.TP+c.FN+c.FP+c.TN, res.TestBins)
	}
}

// TestFleetDeterministic1000Agents is the scale gate: a thousand
// agents plus console over the in-memory transport, under an active
// campaign with collaborative detection, twice — the two Results must
// be deeply equal, or the fleet has a scheduling dependence. Run
// under -race this is the soak CI executes in its dedicated step
// (`make soak`); -short skips it so the regular race suite stays
// within budget.
func TestFleetDeterministic1000Agents(t *testing.T) {
	if testing.Short() {
		t.Skip("thousand-agent soak skipped in -short mode (run via make soak)")
	}
	cfg := Config{
		Users: 1000,
		// One generation pass (hundreds of millions of synthetic
		// connections) shared by both runs and the workspace check.
		Matrices: buildMats(t, 1000, 42, 4*time.Hour),
		Policy:   p99Policy(core.PartialDiversity{NumGroups: 8}),
		Attack: &AttackPlan{
			Kind:           AttackNaive,
			Feature:        features.TCP,
			Size:           1000,
			VictimFraction: 0.1,
			Seed:           7,
		},
		Collab: &collab.Config{Quorum: 20},
	}
	ws := analysis.New(cfg.Matrices)
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Users != 1000 || len(first.Thresholds) != 1000 || len(first.Alarms) != 1000 {
		t.Fatalf("result covers %d users", first.Users)
	}
	second, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("same seed produced different Results")
	}
	// The wire-level outcomes must still match the in-memory pipeline
	// at this scale.
	rcfg, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	assertWireMatchesWorkspace(t, rcfg, ws, first, fleetOverlays(t, rcfg, ws, first))
}

// TestFleetConfigValidation exercises the fail-fast paths.
func TestFleetConfigValidation(t *testing.T) {
	base := Config{
		Users:    2,
		Matrices: buildMats(t, 2, 1, 4*time.Hour),
		Policy:   p99Policy(core.FullDiversity{}),
	}
	// widthMats builds 336-bin matrices of a bin width synthesis
	// would refuse.
	widthMats := func(w time.Duration) []*features.Matrix {
		return []*features.Matrix{features.NewMatrix(w, 0, 336), features.NewMatrix(w, 0, 336)}
	}
	for name, mutate := range map[string]func(*Config){
		"no users":         func(c *Config) { c.Users = 0 },
		"no matrices":      func(c *Config) { c.Matrices = nil },
		"one matrix short": func(c *Config) { c.Matrices = c.Matrices[:1] },
		"zero bin width":   func(c *Config) { c.Matrices = widthMats(0) },
		// 1120m splits a week into 9 windows but not a day.
		"width not dividing a day": func(c *Config) { c.Matrices = widthMats(1120 * time.Minute) },
		"missing policy":           func(c *Config) { c.Policy = core.Policy{} },
		"train==test":              func(c *Config) { c.TrainWeek, c.TestWeek = 1, 1 },
		"weeks too short":          func(c *Config) { c.TestWeek = 5 },
		"bad attack feat":          func(c *Config) { c.Attack = &AttackPlan{Kind: AttackNaive, Feature: 99} },
	} {
		cfg := base
		mutate(&cfg)
		if _, err := cfg.withDefaults(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := base.withDefaults(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	// A clean fleet watches TCP; an attacked one, the attacked feature.
	if got := base.Attack.featureOrTCP(); got != features.TCP {
		t.Errorf("clean watch = %v, want TCP", got)
	}
	attacked := &AttackPlan{Kind: AttackNaive, Feature: features.UDP, Size: 1}
	if got := attacked.featureOrTCP(); got != features.UDP {
		t.Errorf("attacked watch = %v, want UDP", got)
	}
}

// TestFleetClockBarrier checks the logical clock advances only when
// every participant arrives, and that ticks count barrier rounds.
func TestFleetClockBarrier(t *testing.T) {
	const n, rounds = 8, 25
	c := NewClock(n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := c.Step(); err != nil {
					t.Errorf("step: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.Tick() != rounds {
		t.Fatalf("tick = %d, want %d", c.Tick(), rounds)
	}
}

// TestFleetClockCancel checks that cancelling releases waiters with
// ErrClockCancelled instead of deadlocking — the property that lets
// one failing agent abort a fleet run cleanly.
func TestFleetClockCancel(t *testing.T) {
	c := NewClock(2)
	errCh := make(chan error, 1)
	go func() { errCh <- c.Step() }()
	c.Cancel()
	if err := <-errCh; err != ErrClockCancelled {
		t.Fatalf("step after cancel: %v", err)
	}
	if err := c.Step(); err != ErrClockCancelled {
		t.Fatalf("step on cancelled clock: %v", err)
	}
}

// TestFleetThresholdWaitAbortsOnCancel pins the prompt-abort
// behavior: an agent whose thresholds will never arrive must return
// ErrClockCancelled shortly after the fleet clock is cancelled,
// instead of sitting out the full threshold timeout.
func TestFleetThresholdWaitAbortsOnCancel(t *testing.T) {
	network := netsim.NewMemNetwork()
	ln, err := network.Listen("console")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// Scripted console: ack everything, never push thresholds.
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			if _, _, err := console.ReadMsg(conn); err != nil {
				return
			}
			if err := console.WriteMsg(conn, console.MsgAck, console.Ack{}); err != nil {
				return
			}
		}
	}()
	conn, err := network.Dial("console")
	if err != nil {
		t.Fatal(err)
	}
	agent, err := console.NewAgent(conn, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	m := features.NewMatrix(time.Hour, 0, 336)
	for b := range m.Rows {
		m.Rows[b][features.TCP] = 1 // non-empty distributions
	}
	clock := NewClock(2) // a second participant that never arrives
	go func() {
		time.Sleep(50 * time.Millisecond)
		clock.Cancel()
	}()
	start := time.Now()
	_, err = RunAgent(AgentRun{
		Agent:            agent,
		Matrix:           m,
		TrainLo:          0,
		TrainHi:          168,
		MonitorLo:        168,
		MonitorHi:        336,
		ThresholdTimeout: time.Minute,
		Clock:            clock,
	})
	if !errors.Is(err, ErrClockCancelled) {
		t.Fatalf("RunAgent returned %v, want ErrClockCancelled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("abort took %v, want well under the 1m threshold timeout", elapsed)
	}
}

// TestFleetParseSpecs covers the CLI-name parsers the daemons share.
func TestFleetParseSpecs(t *testing.T) {
	if g, err := ParseGrouping("partial8"); err != nil || g.Name() != "8-partial" {
		t.Fatalf("partial8 -> %v, %v", g, err)
	}
	if _, err := ParseGrouping("partialx"); err == nil {
		t.Fatal("partialx accepted")
	}
	if _, err := ParseGrouping("bogus"); err == nil {
		t.Fatal("bogus grouping accepted")
	}
	h, mags, err := ParseHeuristic("utility0.4")
	if err != nil || len(mags) == 0 || h.Name() != "utility(w=0.4)" {
		t.Fatalf("utility0.4 -> %v, %v, %v", h, mags, err)
	}
	if h, _, err := ParseHeuristic("mean3sigma"); err != nil || h.Name() != "mean+3σ" {
		t.Fatalf("mean3sigma -> %v, %v", h, err)
	}
	if _, _, err := ParseHeuristic("p98.6x"); err == nil {
		t.Fatal("bad heuristic accepted")
	}
	if _, err := (ConsoleSpec{Grouping: "full", Heuristic: "p99", Hosts: 0}).Build(); err == nil {
		t.Fatal("zero hosts accepted")
	}
	if srv, err := (ConsoleSpec{Grouping: "full", Heuristic: "p99", Hosts: 3}).Build(); err != nil || srv == nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}
