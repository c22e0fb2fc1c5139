// Package fleet is the in-process fleet simulator: one console server
// and N end-host agents wired over an in-memory net.Conn transport
// (netsim.MemNetwork), driven through the paper's full distributed
// loop — train, upload, threshold push, synchronized test-week
// replay, alert batching, collaborative quorum detection — with no
// real sockets and no wall-clock dependence.
//
// A fleet run is fully deterministic given its Config: the caller
// supplies every host's feature matrix, attack campaigns derive from a
// seeded xrand stream, the console configures over host IDs in
// ascending order (so the order agents connect in decides nothing),
// and replay advances on a logical barrier clock (Clock) instead of
// timers. The same Config therefore always produces an identical
// Result, byte for byte — which is what lets fleet_test.go pin the
// wire-level pipeline to the in-memory analysis pipeline
// (core.EvaluatePolicy over an analysis.Workspace) on the same
// matrices, and what makes thousand-agent soak runs reproducible under
// the race detector.
package fleet

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/collab"
	"repro/internal/console"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/netsim"
	"repro/internal/stats"
)

// Config parameterizes one fleet simulation.
type Config struct {
	// Users is the fleet size.
	Users int
	// Matrices are the per-host feature matrices, one per user, all
	// sharing one geometry: a bin width that divides a day, and enough
	// complete weeks to cover TrainWeek and TestWeek. The matrices are
	// only read during the run.
	Matrices []*features.Matrix

	// Policy is the enterprise configuration policy the console
	// applies.
	Policy core.Policy
	// AttackMagnitudes feed objective-optimizing heuristics (may be
	// nil for percentile-style heuristics).
	AttackMagnitudes []float64

	// TrainWeek and TestWeek implement the week-n-train /
	// week-n+1-test methodology (defaults 0 and 1).
	TrainWeek, TestWeek int

	// Attack optionally injects a campaign into the test week.
	Attack *AttackPlan
	// Collab optionally runs collaborative quorum detection over the
	// alert batches the console received. It watches the attacked
	// feature, or TCP on a clean fleet.
	Collab *collab.Config

	// Logf receives console log lines (default silent).
	Logf func(format string, args ...any)

	// Faults, when set, wraps the in-memory transport in a seeded
	// chaos layer (netsim.FaultNetwork) driven by the fleet clock:
	// drops, delays, resets, partitions and crash windows fire on the
	// plan's schedule, and agents self-heal through them. Healing
	// windows (To >= 0) must start at tick 1 or later — tick 0 covers
	// connect, upload and the threshold push, which a valid run needs
	// exactly once. Windows opening at or before tick 0 must be
	// permanent (To < 0): those hosts are dead from the start and
	// excluded from the run. Nil runs on the perfect network,
	// byte-identical to pre-fault behavior.
	Faults *netsim.FaultPlan
	// AllowDegraded accepts fault plans with permanent losses: the
	// fleet finishes over its survivors (failing agents leave the
	// clock's barrier instead of cancelling it) and the Result records
	// who was lost. Required when Faults does not heal.
	AllowDegraded bool
}

func (c Config) withDefaults() (Config, error) {
	if c.Users <= 0 {
		return c, fmt.Errorf("fleet: Config.Users must be positive, got %d", c.Users)
	}
	if len(c.Matrices) != c.Users {
		return c, fmt.Errorf("fleet: %d matrices for %d users", len(c.Matrices), c.Users)
	}
	m0 := c.Matrices[0]
	for u, m := range c.Matrices {
		if m == nil || m.Bins() != m0.Bins() || m.BinWidth != m0.BinWidth {
			return c, fmt.Errorf("fleet: matrix %d geometry differs from matrix 0", u)
		}
	}
	// Alerts flush once per simulated day, so the width must split a
	// day (and with it a week) into whole windows.
	if m0.BinWidth <= 0 || (24*time.Hour)%m0.BinWidth != 0 {
		return c, fmt.Errorf("fleet: matrix bin width %v does not divide a day", m0.BinWidth)
	}
	if c.TrainWeek == 0 && c.TestWeek == 0 {
		c.TrainWeek, c.TestWeek = 0, 1
	}
	if c.TrainWeek < 0 || c.TestWeek < 0 || c.TrainWeek == c.TestWeek {
		return c, fmt.Errorf("fleet: bad train/test weeks %d/%d", c.TrainWeek, c.TestWeek)
	}
	if weeks := m0.Weeks(); weeks <= max(c.TrainWeek, c.TestWeek) {
		return c, fmt.Errorf("fleet: %d weeks do not cover train week %d and test week %d",
			weeks, c.TrainWeek, c.TestWeek)
	}
	if c.Policy.Heuristic == nil || c.Policy.Grouping == nil {
		return c, fmt.Errorf("fleet: Config.Policy incomplete")
	}
	if c.Attack.active() && !c.Attack.Feature.Valid() {
		return c, fmt.Errorf("fleet: invalid attacked feature %d", int(c.Attack.Feature))
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return c, fmt.Errorf("fleet: %w", err)
		}
		for _, w := range c.Faults.Partitions {
			if w.To >= 0 && w.From < 1 {
				return c, fmt.Errorf("fleet: healing partition [%d, %d) must start at tick >= 1 (tick 0 covers connect/upload/push)", w.From, w.To)
			}
		}
		for _, w := range c.Faults.Crashes {
			if w.To >= 0 && w.From < 1 {
				return c, fmt.Errorf("fleet: healing crash window [%d, %d) of host %d must start at tick >= 1 (tick 0 covers connect/upload/push)", w.From, w.To, w.Host)
			}
		}
		if !c.Faults.Heals() && !c.AllowDegraded {
			return c, fmt.Errorf("fleet: fault plan has permanent losses; set AllowDegraded")
		}
	}
	return c, nil
}

// Result is everything a fleet run observed, in deterministic order:
// per-host threshold assignments as pushed over the wire, per-host
// alarm series as received by the console, and the collaborative
// fleet-event series. Two runs of the same Config produce
// reflect.DeepEqual Results.
type Result struct {
	// Policy is the console's policy name.
	Policy string
	// Users is the fleet size; TestBins the monitored window count.
	Users, TestBins int
	// WatchFeature is the feature Alarms/FleetEvents cover.
	WatchFeature features.Feature
	// Epoch is the console's final configuration epoch.
	Epoch int

	// Thresholds[u] is the full six-feature threshold vector host u
	// received.
	Thresholds [][features.NumFeatures]float64
	// Groups[u] is the configuration group host u landed in.
	Groups []int

	// AlertCounts[u] is the console's tally for host u (all
	// features); TotalAlerts the fleet-wide sum.
	AlertCounts []int
	TotalAlerts int

	// Alarms[u][b] reports whether host u alarmed on the watch
	// feature in test window b, rebuilt from the console's alert log
	// (duplicates deduplicated) — the console-side ground truth.
	Alarms [][]bool

	// AttackedWindows[b] marks the test windows the attack plan made
	// positive (all false without an attack).
	AttackedWindows []bool

	// FleetVotes/FleetEvents are the collaborative detector's
	// per-window weighted votes and quorum events (nil without a
	// Collab config). FleetConfusion scores events against
	// AttackedWindows (nil without an active attack).
	FleetVotes     []int
	FleetEvents    []bool
	FleetConfusion *stats.Confusion

	// Survivors counts the hosts that completed the run. On a healthy
	// or fully-healing run it equals Users, and the degraded fields
	// below are nil/zero — which is exactly what lets the convergence
	// suite DeepEqual a healing fault run against its fault-free twin.
	Survivors int
	// Lost lists hosts that never finished: dead from the start, or
	// crashed permanently mid-run (sorted; nil when none).
	Lost []int
	// Partitioned lists hosts that never finished because a permanent
	// network partition cut them off (sorted; nil when none).
	Partitioned []int
	// Lagging lists survivors whose final thresholds trail the
	// console's epoch (sorted; nil when none).
	Lagging []int
	// EffectiveQuorum is the absolute quorum collaborative detection
	// actually used, resolved over the surviving population (zero
	// without a Collab config).
	EffectiveQuorum int
	// SnapshotFallbacks is always 0: the fleet no longer reads a
	// snapshot store. It stays only so a Result's JSON encoding, which
	// the benchmark's checked-in digests hash, keeps its shape.
	SnapshotFallbacks int
}

// Run executes one fleet simulation to completion.
func Run(cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	bpw := cfg.Matrices[0].BinsPerWeek()
	flushEvery := bpw / 7 // one simulated day, one logical clock tick

	// Resolve the campaign up front: victim subset and (for Storm)
	// the shared bot activity series are seeded, not scheduled.
	var victims map[int]bool
	var storm []float64
	if cfg.Attack.active() {
		if victims, err = cfg.Attack.victimSet(cfg.Users); err != nil {
			return nil, err
		}
		if cfg.Attack.Kind == AttackStorm {
			if storm, err = cfg.Attack.stormSeries(bpw, cfg.Matrices[0].BinWidth); err != nil {
				return nil, err
			}
		}
	}

	// Classify the fault plan's planned losses up front. A permanent
	// window open at or before tick 0 means the host is dead from the
	// start: it never connects, never uploads, and the console's
	// expected population excludes it. Mid-run permanent losses (From
	// >= 1) participate normally until their window opens.
	deadFromStart := make(map[int]bool)
	if cfg.Faults != nil {
		for u := 0; u < cfg.Users; u++ {
			if from, _, ok := cfg.Faults.PermanentLoss(u); ok && from <= 0 {
				deadFromStart[u] = true
			}
		}
	}
	participants := cfg.Users - len(deadFromStart)
	if participants <= 0 {
		return nil, fmt.Errorf("fleet: fault plan kills all %d hosts at tick 0", cfg.Users)
	}

	srv, err := console.NewServer(console.ServerConfig{
		Policy:           cfg.Policy,
		ExpectedHosts:    participants,
		AttackMagnitudes: cfg.AttackMagnitudes,
		Logf:             cfg.Logf,
	})
	if err != nil {
		return nil, err
	}

	// The clock exists before any connection so it can drive the fault
	// layer: logical ticks (completed flush rounds) are the time base
	// partitions and crash windows fire on.
	clock := NewClock(participants)
	network := netsim.NewMemNetwork()
	var fnet *netsim.FaultNetwork
	if cfg.Faults != nil {
		if fnet, err = netsim.NewFaultNetwork(network, *cfg.Faults, clock); err != nil {
			return nil, err
		}
	}
	ln, err := network.Listen("console")
	if err != nil {
		return nil, err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	defer func() {
		_ = srv.Close()
		<-serveDone
	}()

	// Under faults the agents need a redial path and a retry budget
	// that makes healing a function of the fault plan alone:
	// unlimited redials, microsecond backoffs (wall time is noise
	// here — the logical clock is what gates a partition's heal), and
	// a short link wait so a flush into a dead partition fails fast
	// and spools instead of stalling the barrier.
	var retry console.RetryPolicy
	if cfg.Faults != nil {
		retry = console.RetryPolicy{
			MaxDials:     -1,
			MaxOpRetries: 32,
			Backoff:      200 * time.Microsecond,
			BackoffMax:   2 * time.Millisecond,
			LinkWait:     5 * time.Millisecond,
			Seed:         cfg.Faults.Seed ^ 0xa5a5a5a5deadbeef,
		}
	}

	// Connect agents in user order. The console configures over the
	// host IDs in ascending order, so the order does not decide
	// grouping. Hosts dead from the start are skipped entirely.
	agents := make([]*console.Agent, cfg.Users)
	defer func() {
		for _, a := range agents {
			if a != nil {
				_ = a.Close()
			}
		}
	}()
	for u := 0; u < cfg.Users; u++ {
		if deadFromStart[u] {
			continue
		}
		if fnet != nil {
			agents[u], err = console.Connect(console.AgentConfig{
				HostID:   uint32(u),
				Hostname: fmt.Sprintf("host-%d", u),
				Dial:     fnet.Dialer(u, "console"),
				Retry:    retry,
			})
		} else {
			var conn net.Conn
			if conn, err = network.Dial("console"); err != nil {
				return nil, err
			}
			agents[u], err = console.NewAgent(conn, uint32(u), fmt.Sprintf("host-%d", u))
		}
		if err != nil {
			return nil, fmt.Errorf("fleet: connecting host %d: %w", u, err)
		}
	}

	// Drive every agent through the shared run loop, replay
	// synchronized on the logical clock (one tick per flush).
	trainLo, trainHi := cfg.TrainWeek*bpw, (cfg.TrainWeek+1)*bpw
	testLo, testHi := cfg.TestWeek*bpw, (cfg.TestWeek+1)*bpw
	reports := make([]*AgentReport, cfg.Users)
	errs := make([]error, cfg.Users)
	var wg sync.WaitGroup
	for u := 0; u < cfg.Users; u++ {
		if agents[u] == nil {
			continue
		}
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			m := cfg.Matrices[u]
			var overlayFn func(console.Thresholds) ([]float64, error)
			if cfg.Attack.active() {
				overlayFn = func(thr console.Thresholds) ([]float64, error) {
					var trainDist *stats.Empirical
					if cfg.Attack.Kind == AttackMimicry {
						var err error
						trainDist, err = m.Distribution(cfg.Attack.Feature, trainLo, trainHi)
						if err != nil {
							return nil, err
						}
					}
					return cfg.Attack.overlayFor(u, victims, bpw, storm,
						trainDist, thr.Values[cfg.Attack.Feature])
				}
			}
			reports[u], errs[u] = RunAgent(AgentRun{
				Agent:          agents[u],
				Matrix:         m,
				TrainLo:        trainLo,
				TrainHi:        trainHi,
				MonitorLo:      testLo,
				MonitorHi:      testHi,
				FlushEvery:     flushEvery,
				OverlayFn:      overlayFn,
				OverlayFeature: cfg.Attack.featureOrTCP(),
				Clock:          clock,
				SpoolFlushes:   cfg.Faults != nil,
				LeaveOnError:   cfg.AllowDegraded,
				Logf:           cfg.Logf,
			})
		}(u)
	}
	wg.Wait()

	deg := degraded{survivors: participants}
	if cfg.AllowDegraded {
		// Degraded mode: a failing agent left the barrier instead of
		// cancelling it, so the rest finished. Classify each casualty
		// by what the fault plan says happened to it.
		for u, runErr := range errs {
			switch {
			case agents[u] == nil:
				// Dead from the start — already excluded from the
				// participant count, only the classification is added.
				_, byPartition, _ := cfg.Faults.PermanentLoss(u)
				deg.add(u, byPartition)
			case runErr == nil:
				continue
			case errors.Is(runErr, ErrClockCancelled):
				return nil, fmt.Errorf("fleet: host %d: %w", u, runErr)
			default:
				deg.survivors--
				_, byPartition, planned := cfg.Faults.PermanentLoss(u)
				deg.add(u, planned && byPartition)
				if cfg.Logf != nil {
					cfg.Logf("fleet: host %d lost: %v", u, runErr)
				}
			}
		}
		if deg.survivors <= 0 {
			return nil, fmt.Errorf("fleet: no host survived the run")
		}
	} else {
		// A single failing agent cancels the clock, so most agents
		// finish with ErrClockCancelled — report the root cause, not
		// the cascade.
		cancelled := -1
		for u, err := range errs {
			if err == nil {
				continue
			}
			if errors.Is(err, ErrClockCancelled) {
				if cancelled < 0 {
					cancelled = u
				}
				continue
			}
			return nil, fmt.Errorf("fleet: host %d: %w", u, err)
		}
		if cancelled >= 0 {
			return nil, fmt.Errorf("fleet: host %d: %w", cancelled, ErrClockCancelled)
		}
	}

	return buildResult(cfg, srv, reports, storm, testLo, testHi, deg)
}

// degraded accumulates the run's casualty accounting.
type degraded struct {
	survivors   int
	lost        []int
	partitioned []int
}

func (d *degraded) add(u int, byPartition bool) {
	if byPartition {
		d.partitioned = append(d.partitioned, u)
	} else {
		d.lost = append(d.lost, u)
	}
}

// sortedOrNil sorts s ascending, returning nil for an empty slice so
// Result comparisons treat "no casualties" one way only.
func sortedOrNil(s []int) []int {
	if len(s) == 0 {
		return nil
	}
	sort.Ints(s)
	return s
}

// featureOrTCP returns the attacked feature, or TCP for a nil or
// inactive plan: the feature a run's overlay adds to and its
// collaborative detection watches.
func (p *AttackPlan) featureOrTCP() features.Feature {
	if p.active() {
		return p.Feature
	}
	return features.TCP
}

// buildResult assembles the deterministic Result from the console's
// state and the per-agent reports.
func buildResult(cfg Config, srv *console.Server, reports []*AgentReport, storm []float64, testLo, testHi int, deg degraded) (*Result, error) {
	res := &Result{
		Policy:       cfg.Policy.Name(),
		Users:        cfg.Users,
		TestBins:     testHi - testLo,
		WatchFeature: cfg.Attack.featureOrTCP(),
		Epoch:        srv.Epoch(),
		Thresholds:   make([][features.NumFeatures]float64, cfg.Users),
		Groups:       make([]int, cfg.Users),
		AlertCounts:  make([]int, cfg.Users),
		Survivors:    deg.survivors,
		Lost:         sortedOrNil(deg.lost),
		Partitioned:  sortedOrNil(deg.partitioned),
	}
	for u, rep := range reports {
		if rep == nil {
			// Casualty: no thresholds ever confirmed on this host. The
			// console's tally still speaks for whatever it received
			// before the loss.
			res.Groups[u] = -1
			res.AlertCounts[u] = srv.AlertCount(uint32(u))
			res.TotalAlerts += res.AlertCounts[u]
			continue
		}
		res.Thresholds[u] = rep.Thresholds.Values
		res.Groups[u] = rep.Thresholds.Group
		res.AlertCounts[u] = srv.AlertCount(uint32(u))
		res.TotalAlerts += res.AlertCounts[u]
		if rep.Thresholds.Epoch < res.Epoch {
			res.Lagging = append(res.Lagging, u)
		}
	}

	// Rebuild the watch feature's alarm matrix from the console's
	// alert log: the console-side view of the fleet, deduplicated, so
	// neither arrival order nor repeated batches can perturb it.
	tally, err := collab.NewTally(cfg.Users, res.TestBins)
	if err != nil {
		return nil, err
	}
	for _, batch := range srv.Alerts() {
		if int(batch.HostID) >= cfg.Users {
			return nil, fmt.Errorf("fleet: alert from unknown host %d", batch.HostID)
		}
		for _, a := range batch.Alerts {
			if features.Feature(a.Feature) != res.WatchFeature {
				continue
			}
			if a.Bin < testLo || a.Bin >= testHi {
				return nil, fmt.Errorf("fleet: host %d alerted outside the test week (window %d)", batch.HostID, a.Bin)
			}
			if err := tally.Mark(int(batch.HostID), a.Bin-testLo); err != nil {
				return nil, err
			}
		}
	}
	res.Alarms = tally.Alarms()

	// Positives exist only if some victim actually carried malicious
	// volume: a mimicry campaign whose per-host size clamps to zero on
	// every victim injected nothing, so no window is attacked.
	injected := false
	for _, rep := range reports {
		if rep != nil && rep.OverlayActive {
			injected = true
			break
		}
	}
	if cfg.Attack.active() && injected {
		res.AttackedWindows = cfg.Attack.AttackedWindows(res.TestBins, storm)
	} else {
		res.AttackedWindows = make([]bool, res.TestBins)
	}

	if cfg.Collab != nil {
		// Degraded-mode quorum: resolve the (possibly fractional)
		// quorum over the surviving population, so the fleet never
		// demands votes from the dead. On a full-strength run this is
		// exactly the configured absolute quorum.
		cc := *cfg.Collab
		cc.Quorum = cc.ResolveQuorum(deg.survivors)
		cc.QuorumFraction = 0
		res.EffectiveQuorum = cc.Quorum
		det, err := collab.New(cc)
		if err != nil {
			return nil, err
		}
		if res.FleetVotes, err = det.Votes(res.Alarms); err != nil {
			return nil, err
		}
		if res.FleetEvents, err = det.Events(res.Alarms); err != nil {
			return nil, err
		}
		if cfg.Attack.active() {
			conf, err := det.Evaluate(res.Alarms, res.AttackedWindows)
			if err != nil {
				return nil, err
			}
			res.FleetConfusion = &conf
		}
	}
	return res, nil
}
