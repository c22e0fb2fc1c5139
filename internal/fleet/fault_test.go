package fleet

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/collab"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/netsim"
)

// faultFlushEvery is the fault suite's flush interval: one simulated
// day of 4-hour windows, which is how often a fleet run flushes.
const faultFlushEvery = 6

// faultFleetConfigSeed builds the shared small-fleet geometry the
// fault suite runs: 12 hosts, two weeks of 4-hour windows (42 per
// week), alerts flushed every faultFlushEvery windows — 7 logical
// clock ticks — a
// Storm campaign straddling the fleet's thresholds, and collaborative
// quorum detection. Small enough that a grid of runs stays cheap,
// busy enough that every flush round actually carries alert batches
// the fault layer can drop, spool and re-deliver.
func faultFleetConfigSeed(t *testing.T, seed uint64) Config {
	t.Helper()
	cfg := Config{
		Users:    12,
		Matrices: buildMats(t, 12, seed, 4*time.Hour),
		Policy:   p99Policy(core.FullDiversity{}),
		Attack: &AttackPlan{
			Kind:    AttackStorm,
			Feature: features.Distinct,
			Seed:    5,
		},
		Collab: &collab.Config{Quorum: 3},
	}
	if day := cfg.Matrices[0].BinsPerWeek() / 7; day != faultFlushEvery {
		t.Fatalf("one day is %d windows, want faultFlushEvery = %d", day, faultFlushEvery)
	}
	return cfg
}

func faultFleetConfig(t *testing.T) Config { return faultFleetConfigSeed(t, 23) }

// healingPlans is the convergence grid: every plan here eventually
// heals, so a fleet run under it must produce a Result DeepEqual to
// the fault-free run of the same Config. The plans cover each fault
// mechanism alone and combined.
func healingPlans() []struct {
	name string
	plan netsim.FaultPlan
} {
	return []struct {
		name string
		plan netsim.FaultPlan
	}{
		{"drops heal", netsim.FaultPlan{
			Seed: 101, DropProb: 0.25, HealTick: 4,
		}},
		{"drops forever", netsim.FaultPlan{
			// No HealTick: drops never stop, but retried protocols make
			// progress through probabilistic faults, so this still
			// converges (the FaultPlan doc's claim, pinned here).
			Seed: 102, DropProb: 0.25,
		}},
		{"resets heal", netsim.FaultPlan{
			Seed: 103, ResetProb: 0.2, HealTick: 4,
		}},
		{"delay jitter drops", netsim.FaultPlan{
			Seed: 104, DropProb: 0.1,
			Delay: 50 * time.Microsecond, Jitter: 100 * time.Microsecond,
			HealTick: 5,
		}},
		{"partition heals", netsim.FaultPlan{
			Seed:       105,
			Partitions: []netsim.Partition{{Hosts: []int{2, 5, 7}, From: 2, To: 4}},
		}},
		{"crash restart", netsim.FaultPlan{
			Seed: 106,
			Crashes: []netsim.CrashWindow{
				{Host: 1, From: 1, To: 3},
				{Host: 6, From: 3, To: 5},
			},
		}},
		{"reconnect storm", netsim.FaultPlan{
			// Every host severed for one tick, then the whole fleet
			// redials the console at once.
			Seed:       107,
			Partitions: []netsim.Partition{{From: 2, To: 3}},
		}},
		{"chaos", netsim.FaultPlan{
			Seed: 108, DropProb: 0.2, ResetProb: 0.1, HealTick: 3,
			Partitions: []netsim.Partition{{Hosts: []int{3, 4}, From: 1, To: 3}},
			Crashes:    []netsim.CrashWindow{{Host: 9, From: 2, To: 4}},
		}},
	}
}

// assertResultsEqual fails with a field-level hint before the blunt
// DeepEqual verdict, so a divergence is diagnosable from the log.
func assertResultsEqual(t *testing.T, got, want *Result) {
	t.Helper()
	if got.Survivors != want.Survivors {
		t.Errorf("Survivors = %d, want %d", got.Survivors, want.Survivors)
	}
	if got.TotalAlerts != want.TotalAlerts {
		t.Errorf("TotalAlerts = %d, want %d", got.TotalAlerts, want.TotalAlerts)
	}
	if got.Epoch != want.Epoch {
		t.Errorf("Epoch = %d, want %d", got.Epoch, want.Epoch)
	}
	if !reflect.DeepEqual(got.AlertCounts, want.AlertCounts) {
		t.Errorf("AlertCounts = %v, want %v", got.AlertCounts, want.AlertCounts)
	}
	if !reflect.DeepEqual(got.Lost, want.Lost) || !reflect.DeepEqual(got.Partitioned, want.Partitioned) {
		t.Errorf("casualties = lost %v / partitioned %v, want %v / %v",
			got.Lost, got.Partitioned, want.Lost, want.Partitioned)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Results differ beyond the fields above (thresholds, alarms, or collab series)")
	}
}

// TestFleetFaultConvergence is the tentpole property: a fleet run
// under any healing fault plan — drops, resets, delay, partitions,
// crash/restart windows, a full reconnect storm, all combined — ends
// in a Result deeply equal to the fault-free run of the same Config.
// Self-healing is invisible in the outcome: no lost alerts, no
// duplicated alerts, no threshold drift, no phantom casualties.
func TestFleetFaultConvergence(t *testing.T) {
	cfg := faultFleetConfig(t)
	baseline, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if baseline.Survivors != cfg.Users || baseline.Lost != nil || baseline.Partitioned != nil {
		t.Fatalf("fault-free baseline not clean: survivors %d, lost %v, partitioned %v",
			baseline.Survivors, baseline.Lost, baseline.Partitioned)
	}
	if baseline.TotalAlerts == 0 {
		t.Fatal("baseline carried no alerts; the convergence check would be vacuous")
	}
	for _, tc := range healingPlans() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			fcfg := cfg
			fcfg.Faults = &tc.plan
			res, err := Run(fcfg)
			if err != nil {
				t.Fatal(err)
			}
			assertResultsEqual(t, res, baseline)
		})
	}
}

// TestFleetFaultDegradedQuorum pins degraded mode: one host crashes
// for good mid-run, another is permanently partitioned, and the fleet
// finishes over the ten survivors. The Result classifies each
// casualty by its fault, dead hosts contribute no votes after their
// loss, the fractional quorum resolves over survivors — and the whole
// degraded run is still deterministic.
func TestFleetFaultDegradedQuorum(t *testing.T) {
	cfg := faultFleetConfig(t)
	cfg.Collab = &collab.Config{QuorumFraction: 0.25}
	cfg.Faults = &netsim.FaultPlan{
		Seed:       201,
		Crashes:    []netsim.CrashWindow{{Host: 3, From: 2, To: -1}},
		Partitions: []netsim.Partition{{Hosts: []int{8}, From: 3, To: -1}},
	}
	cfg.AllowDegraded = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Survivors != 10 {
		t.Fatalf("Survivors = %d, want 10", res.Survivors)
	}
	if !reflect.DeepEqual(res.Lost, []int{3}) {
		t.Fatalf("Lost = %v, want [3]", res.Lost)
	}
	if !reflect.DeepEqual(res.Partitioned, []int{8}) {
		t.Fatalf("Partitioned = %v, want [8]", res.Partitioned)
	}
	if res.Lagging != nil {
		t.Fatalf("Lagging = %v, want none", res.Lagging)
	}
	// ceil(0.25 * 10 survivors) = 3, never the configured fraction of
	// the nominal fleet size.
	if res.EffectiveQuorum != 3 {
		t.Fatalf("EffectiveQuorum = %d, want 3", res.EffectiveQuorum)
	}
	if res.Groups[3] != -1 || res.Groups[8] != -1 {
		t.Fatalf("casualty groups = %d, %d; want -1, -1", res.Groups[3], res.Groups[8])
	}
	// No phantom votes: host 3 went down at tick 2, so its last
	// delivered batch covers windows [0, 12); host 8 at tick 3, windows
	// [0, 18). Anything later on those rows would be an alert the
	// console invented.
	for b := 2 * faultFlushEvery; b < res.TestBins; b++ {
		if res.Alarms[3][b] {
			t.Fatalf("host 3 alarmed in window %d after its permanent crash", b)
		}
	}
	for b := 3 * faultFlushEvery; b < res.TestBins; b++ {
		if res.Alarms[8][b] {
			t.Fatalf("host 8 alarmed in window %d after its permanent partition", b)
		}
	}
	// The fleet series must be exactly an absolute-quorum detector at
	// the resolved quorum over the console-observed alarm matrix.
	det, err := collab.New(collab.Config{Quorum: res.EffectiveQuorum})
	if err != nil {
		t.Fatal(err)
	}
	events, err := det.Events(res.Alarms)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, res.FleetEvents) {
		t.Fatal("FleetEvents differ from the resolved-quorum detector over the alarm matrix")
	}
	again, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, again, res)
}

// TestFleetFaultDeadFromStart covers permanent windows open at tick
// 0: the host never connects, the console's expected population
// excludes it up front (so thresholds still get configured and
// pushed), and the Result reports it lost with no thresholds, no
// group, and no alerts.
func TestFleetFaultDeadFromStart(t *testing.T) {
	cfg := faultFleetConfig(t)
	cfg.Faults = &netsim.FaultPlan{
		Seed:    301,
		Crashes: []netsim.CrashWindow{{Host: 0, From: 0, To: -1}},
	}
	cfg.AllowDegraded = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Survivors != 11 || !reflect.DeepEqual(res.Lost, []int{0}) {
		t.Fatalf("survivors %d, lost %v; want 11, [0]", res.Survivors, res.Lost)
	}
	var zero [features.NumFeatures]float64
	if res.Groups[0] != -1 || res.Thresholds[0] != zero || res.AlertCounts[0] != 0 {
		t.Fatalf("dead-from-start host leaked state: group %d, thresholds %v, alerts %d",
			res.Groups[0], res.Thresholds[0], res.AlertCounts[0])
	}
	for u := 1; u < cfg.Users; u++ {
		if res.Groups[u] < 0 {
			t.Fatalf("surviving host %d has no group", u)
		}
	}
	if res.EffectiveQuorum != 3 {
		t.Fatalf("EffectiveQuorum = %d, want 3", res.EffectiveQuorum)
	}
}

// TestFleetFaultConfigValidation exercises the fail-fast paths the
// fault layer adds to Config.
func TestFleetFaultConfigValidation(t *testing.T) {
	base := Config{
		Users:    4,
		Matrices: buildMats(t, 4, 1, 4*time.Hour),
		Policy:   p99Policy(core.FullDiversity{}),
	}
	for name, mutate := range map[string]func(*Config){
		"healing partition at tick 0": func(c *Config) {
			c.Faults = &netsim.FaultPlan{Partitions: []netsim.Partition{{Hosts: []int{1}, From: 0, To: 2}}}
		},
		"healing crash at tick 0": func(c *Config) {
			c.Faults = &netsim.FaultPlan{Crashes: []netsim.CrashWindow{{Host: 1, From: 0, To: 2}}}
		},
		"permanent loss needs AllowDegraded": func(c *Config) {
			c.Faults = &netsim.FaultPlan{Crashes: []netsim.CrashWindow{{Host: 1, From: 2, To: -1}}}
		},
		"drop probability above 1": func(c *Config) {
			c.Faults = &netsim.FaultPlan{DropProb: 1.5}
		},
		"drop plus reset above 1": func(c *Config) {
			c.Faults = &netsim.FaultPlan{DropProb: 0.7, ResetProb: 0.6}
		},
	} {
		cfg := base
		mutate(&cfg)
		if _, err := cfg.withDefaults(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	healing := base
	healing.Faults = &netsim.FaultPlan{
		DropProb:   0.5,
		Partitions: []netsim.Partition{{Hosts: []int{1}, From: 1, To: 2}},
	}
	if _, err := healing.withDefaults(); err != nil {
		t.Errorf("healing plan rejected: %v", err)
	}
	degraded := base
	degraded.Faults = &netsim.FaultPlan{Crashes: []netsim.CrashWindow{{Host: 1, From: 2, To: -1}}}
	degraded.AllowDegraded = true
	if _, err := degraded.withDefaults(); err != nil {
		t.Errorf("permanent plan with AllowDegraded rejected: %v", err)
	}

	// A plan that kills the whole fleet at tick 0 has no run to do.
	small := base
	small.AllowDegraded = true
	small.Faults = &netsim.FaultPlan{Partitions: []netsim.Partition{{From: 0, To: -1}}}
	if _, err := Run(small); err == nil {
		t.Error("plan killing every host at tick 0 accepted")
	}
}

// TestFleetClockLeave pins the degraded-mode barrier shrink: a
// departing participant never strands the survivors, completes the
// current round if it was the last arrival missing, and the last
// survivor ticks freely.
func TestFleetClockLeave(t *testing.T) {
	c := NewClock(3)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.Step()
		}(i)
	}
	time.Sleep(10 * time.Millisecond) // widen the waiting-at-barrier interleaving
	c.Leave()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("stepper %d: %v", i, err)
		}
	}
	if c.Tick() != 1 {
		t.Fatalf("tick = %d after Leave completed the round, want 1", c.Tick())
	}

	done := make(chan error, 1)
	go func() { done <- c.Step() }()
	c.Leave()
	if err := <-done; err != nil {
		t.Fatalf("survivor step after Leave: %v", err)
	}
	if c.Tick() != 2 {
		t.Fatalf("tick = %d, want 2", c.Tick())
	}

	// A single remaining participant self-completes every round.
	if err := c.Step(); err != nil {
		t.Fatalf("solo step: %v", err)
	}
	if c.Tick() != 3 {
		t.Fatalf("tick = %d, want 3", c.Tick())
	}
	c.Leave()
	c.Leave() // empty barrier: no-op, no panic

	// Leave after Cancel changes nothing: the clock stays cancelled.
	c2 := NewClock(2)
	c2.Cancel()
	c2.Leave()
	if err := c2.Step(); err != ErrClockCancelled {
		t.Fatalf("step on cancelled clock after Leave: %v", err)
	}
}

// TestChaosConvergenceGrid is the chaos soak (`make chaos-soak`): the
// convergence property over a grid of population seeds and heavier
// fault plans, under the race detector. -short skips it so the
// regular suite stays within budget.
func TestChaosConvergenceGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode (run via make chaos-soak)")
	}
	for _, seed := range []uint64{31, 77} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := faultFleetConfigSeed(t, seed)
			baseline, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			plans := []struct {
				name string
				plan netsim.FaultPlan
			}{
				{"heavy drops resets", netsim.FaultPlan{
					Seed: seed*2 + 1, DropProb: 0.35, ResetProb: 0.15,
					Delay: 20 * time.Microsecond, Jitter: 80 * time.Microsecond,
					HealTick: 5,
				}},
				{"double storm", netsim.FaultPlan{
					Seed: seed*2 + 2,
					Partitions: []netsim.Partition{
						{From: 1, To: 2},
						{From: 3, To: 4},
					},
				}},
				{"everything at once", netsim.FaultPlan{
					Seed: seed*2 + 3, DropProb: 0.2, ResetProb: 0.1, HealTick: 4,
					Partitions: []netsim.Partition{{Hosts: []int{0, 1, 2, 3, 4, 5}, From: 2, To: 4}},
					Crashes: []netsim.CrashWindow{
						{Host: 7, From: 1, To: 5},
						{Host: 10, From: 4, To: 6},
					},
				}},
			}
			for _, tc := range plans {
				tc := tc
				t.Run(tc.name, func(t *testing.T) {
					t.Parallel()
					fcfg := cfg
					fcfg.Faults = &tc.plan
					res, err := Run(fcfg)
					if err != nil {
						t.Fatal(err)
					}
					assertResultsEqual(t, res, baseline)
				})
			}
		})
	}
}

// TestChaosDegradedDeterminism soaks the degraded path: permanent
// losses on top of probabilistic chaos, twice — the casualty
// classification, the resolved quorum and the full Result must be
// identical across runs.
func TestChaosDegradedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode (run via make chaos-soak)")
	}
	cfg := faultFleetConfig(t)
	cfg.Collab = &collab.Config{QuorumFraction: 0.4}
	cfg.Faults = &netsim.FaultPlan{
		Seed: 55, DropProb: 0.2, HealTick: 4,
		Crashes:    []netsim.CrashWindow{{Host: 2, From: 2, To: -1}},
		Partitions: []netsim.Partition{{Hosts: []int{7}, From: 4, To: -1}},
	}
	cfg.AllowDegraded = true
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Survivors != 10 {
		t.Fatalf("Survivors = %d, want 10", first.Survivors)
	}
	if !reflect.DeepEqual(first.Lost, []int{2}) || !reflect.DeepEqual(first.Partitioned, []int{7}) {
		t.Fatalf("casualties = lost %v / partitioned %v, want [2] / [7]", first.Lost, first.Partitioned)
	}
	if first.EffectiveQuorum != 4 { // ceil(0.4 * 10)
		t.Fatalf("EffectiveQuorum = %d, want 4", first.EffectiveQuorum)
	}
	second, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, second, first)
}
