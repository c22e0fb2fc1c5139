package bench

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/analysis"
	"repro/internal/buildctl"
	"repro/internal/collab"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/fleet"
	"repro/internal/netsim"
	"repro/internal/par"
	"repro/internal/snapshot"
	"repro/internal/stats"
	"repro/internal/trace"
)

// weeks is every workload's capture: one training week, one test week.
const weeks = 2

// Scale sizes the workloads.
type Scale struct {
	BuildUsers  int `json:"build_users"`
	PaperUsers  int `json:"paper_users"` // the paper and stream population
	FleetAgents int `json:"fleet_agents"`
	HealAgents  int `json:"heal_agents"`
}

// DefaultScale is the benchmark's. On a 2-CPU host one op takes 0.2 to
// 0.6 s, so a 12-second run holds 20 to 60 ops, and set-up stays a few
// seconds: small enough that ten runs per workload and commit fit the
// time a regression check can spend, large enough that the medians
// repeat across seeds.
var DefaultScale = Scale{BuildUsers: 128, PaperUsers: 1000, FleetAgents: 250, HealAgents: 128}

// opResult is one op's outcome.
type opResult struct {
	elapsed time.Duration      // time inside the calls into the layers
	digest  string             // digest of the op's output
	counts  map[string]float64 // per-op counts the layers report
}

// instance is a workload after set-up, ready to run ops.
type instance struct {
	ref    string  // digest every op must reproduce; "" adopts the warm-up op's
	items  float64 // items of work per op
	op     func() (opResult, error)
	traced func(rec *recorder) (digest string, err error)
}

// A workload is one benchmark scenario over a population of users(sc)
// users. setup builds its inputs under dir from the population seed;
// every op then does the same work on them.
type workload struct {
	name  string
	users func(sc Scale) int
	setup func(dir string, seed uint64, users int) (*instance, error)
}

// workloads run in this order. Each stresses different layers; see
// README.md for why each is in the benchmark and what it should move.
var workloads = []workload{
	{"build", func(sc Scale) int { return sc.BuildUsers }, setupBuild},
	{"paper", func(sc Scale) int { return sc.PaperUsers }, func(dir string, seed uint64, users int) (*instance, error) {
		return setupPaper(dir, seed, users, false)
	}},
	{"stream", func(sc Scale) int { return sc.PaperUsers }, func(dir string, seed uint64, users int) (*instance, error) {
		return setupPaper(dir, seed, users, true)
	}},
	{"fleet", func(sc Scale) int { return sc.FleetAgents }, func(_ string, seed uint64, users int) (*instance, error) {
		return setupFleet(seed, users, false)
	}},
	{"fleet-heal", func(sc Scale) int { return sc.HealAgents }, func(_ string, seed uint64, users int) (*instance, error) {
		return setupFleet(seed, users, true)
	}},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Seeds of the attack and fault plans derive from the population seed.
const (
	attackSalt = 0xa77ac4
	faultSalt  = 0xfa0175
)

// ---------------------------------------------------------------------
// build

// buildRanges is the coordinator's initial range count: more ranges
// than workers, so retries and resumes stay fine-grained.
const buildRanges = 8

func setupBuild(dir string, seed uint64, users int) (*instance, error) {
	pop, err := trace.NewPopulation(trace.Config{Users: users, Weeks: weeks, Seed: seed})
	if err != nil {
		return nil, err
	}
	key, err := snapshot.KeyFor(pop.Cfg)
	if err != nil {
		return nil, err
	}
	weights := pop.CostWeights()
	gen := func(u int, rows [][features.NumFeatures]float64) { pop.Users[u].FillSeries(rows) }

	// The reference is a single-process build; every coordinated build
	// must seal the same bytes.
	refDir := filepath.Join(dir, "ref")
	ws, err := analysis.MaterializeSharded(context.Background(), refDir, key, 0, gen)
	if err != nil {
		return nil, fmt.Errorf("reference build: %w", err)
	}
	if err := ws.Close(); err != nil {
		return nil, err
	}
	ref, err := storeDigest(refDir, key)
	if err != nil {
		return nil, err
	}

	n := 0
	fresh := func() string {
		n++
		return filepath.Join(dir, fmt.Sprintf("op%d", n))
	}
	in := &instance{ref: ref, items: float64(users * weeks)}
	in.op = func() (opResult, error) {
		d := fresh()
		defer os.RemoveAll(d)
		start := time.Now()
		st, err := buildctl.Build(context.Background(), buildctl.Options{
			Dir: d, Key: key,
			Worker:   &buildctl.LocalWorker{Dir: d, Key: key, Generate: gen},
			Parallel: runtime.GOMAXPROCS(0), Ranges: buildRanges, Weights: weights,
		})
		if err == nil {
			err = openClose(d, key)
		}
		r := opResult{elapsed: time.Since(start)}
		if err != nil {
			return r, err
		}
		r.counts = map[string]float64{"buildctl.attempts_per_range": float64(st.Attempts) / float64(st.Ranges)}
		r.digest, err = storeDigest(d, key)
		return r, err
	}
	in.traced = func(rec *recorder) (string, error) {
		d := fresh()
		defer os.RemoveAll(d)
		root := rec.open(0, "op")
		err := buildReplay(rec, root, d, key, weights, gen)
		rec.close(root, 0)
		if err != nil {
			return "", err
		}
		return storeDigest(d, key)
	}
	return in, nil
}

// buildReplay does a coordinated build's work through the layers'
// public calls, without the coordinator: cut ranges, build them on
// GOMAXPROCS goroutines, verify every part, merge, and map the store.
func buildReplay(rec *recorder, root int, dir string, key snapshot.Key, weights []float64, gen func(int, [][features.NumFeatures]float64)) error {
	var cuts [][2]int
	rec.span(root, "snapshot.cut", 0, func(int) error {
		cuts = snapshot.CutRanges(weights, buildRanges)
		return nil
	})
	err := par.ForEachErr(len(cuts), 0, func(i int) error {
		lo, hi := cuts[i][0], cuts[i][1]
		return rec.span(root, "analysis.build_range", float64(hi-lo), func(id int) error {
			return analysis.BuildShardRange(context.Background(), dir, key, lo, hi, 0, func(u int, rows [][features.NumFeatures]float64) {
				rec.span(id, "trace.fill", weeks, func(int) error {
					gen(u, rows)
					return nil
				})
			})
		})
	})
	if err != nil {
		return err
	}
	for _, c := range cuts {
		id := rec.open(root, "snapshot.verify_part")
		info, err := snapshot.VerifyPart(dir, key, c[0], c[1])
		rec.close(id, mib(info.Bytes))
		if err != nil {
			return err
		}
	}
	id := rec.open(root, "snapshot.merge")
	_, err = snapshot.MergeShards(dir, key)
	size := fileMiB(key.Path(dir))
	rec.close(id, size)
	if err != nil {
		return err
	}
	rec.count(root, "snapshot.sealed_mb", size)
	return rec.span(root, "snapshot.open", size, func(int) error { return openClose(dir, key) })
}

func openClose(dir string, key snapshot.Key) error {
	s, err := snapshot.Open(dir, key)
	if err != nil {
		return err
	}
	return s.Close()
}

// storeDigest is the SHA-256 of a sealed store and of its manifest.
func storeDigest(dir string, key snapshot.Key) (string, error) {
	var parts []string
	for _, p := range []string{key.Path(dir), key.ManifestPath(dir)} {
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		h := sha256.New()
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
		parts = append(parts, hex.EncodeToString(h.Sum(nil)))
	}
	return strings.Join(parts, "+"), nil
}

func mib(bytes int64) float64 { return float64(bytes) / (1 << 20) }

func fileMiB(path string) float64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return mib(fi.Size())
}

// ---------------------------------------------------------------------
// paper and stream

// streamShard is the stream workload's shard size, in users.
const streamShard = 128

// runners are the paper's ten runners in presentation order; stream
// marks the five the stream workload runs shard by shard.
var runners = []struct {
	name   string
	stream bool
	run    func(*repro.Enterprise, repro.ExperimentConfig) (fmt.Stringer, error)
}{
	{"fig1", false, func(e *repro.Enterprise, c repro.ExperimentConfig) (fmt.Stringer, error) { return repro.Fig1(e, c) }},
	{"fig2", false, func(e *repro.Enterprise, c repro.ExperimentConfig) (fmt.Stringer, error) { return repro.Fig2(e, c) }},
	{"table2", false, func(e *repro.Enterprise, c repro.ExperimentConfig) (fmt.Stringer, error) { return repro.Table2(e, c) }},
	{"fig3a", true, func(e *repro.Enterprise, c repro.ExperimentConfig) (fmt.Stringer, error) { return repro.Fig3a(e, c) }},
	{"fig3b", true, func(e *repro.Enterprise, c repro.ExperimentConfig) (fmt.Stringer, error) { return repro.Fig3b(e, c) }},
	{"table3", true, func(e *repro.Enterprise, c repro.ExperimentConfig) (fmt.Stringer, error) { return repro.Table3(e, c) }},
	{"fig4a", true, func(e *repro.Enterprise, c repro.ExperimentConfig) (fmt.Stringer, error) { return repro.Fig4a(e, c) }},
	{"fig4b", true, func(e *repro.Enterprise, c repro.ExperimentConfig) (fmt.Stringer, error) { return repro.Fig4b(e, c) }},
	{"fig5a", false, func(e *repro.Enterprise, c repro.ExperimentConfig) (fmt.Stringer, error) { return repro.Fig5a(e, c) }},
	{"fig5b", false, func(e *repro.Enterprise, c repro.ExperimentConfig) (fmt.Stringer, error) { return repro.Fig5b(e, c) }},
}

// store is a sealed population store and the enterprise options that
// map it.
type store struct {
	opts      repro.Options
	key       snapshot.Key
	mib       float64
	fallbacks atomic.Int64 // snapshot fallbacks reported through Options.Warnf
}

var errFallback = errors.New("the snapshot store fell back to regeneration")

func newStore(dir string, seed uint64, users int) (*store, error) {
	s := &store{}
	s.opts = repro.Options{
		Users: users, Weeks: weeks, Seed: seed, SnapshotDir: dir,
		Warnf: func(format string, args ...any) {
			s.fallbacks.Add(1)
			fmt.Fprintf(os.Stderr, "hidsbench: "+format+"\n", args...)
		},
	}
	build := s.opts
	build.SnapshotWorkers = runtime.GOMAXPROCS(0)
	ent, err := repro.NewEnterprise(build)
	if err != nil {
		return nil, err
	}
	ent.Materialize()
	if err := ent.Close(); err != nil {
		return nil, err
	}
	if s.fallbacks.Load() > 0 {
		return nil, errFallback
	}
	if s.key, err = snapshot.KeyFor(ent.Pop.Cfg); err != nil {
		return nil, err
	}
	s.mib = fileMiB(s.key.Path(dir))
	return s, nil
}

// run maps the store into a fresh enterprise and runs the selected
// runners, returning their rendered outputs and the time spent in
// NewEnterprise, Materialize, the runners and Close.
func (s *store) run(streamOnly bool) ([]string, time.Duration, error) {
	before := s.fallbacks.Load()
	cfg := repro.DefaultExperimentConfig()
	start := time.Now()
	ent, err := repro.NewEnterprise(s.opts)
	if err != nil {
		return nil, time.Since(start), err
	}
	ent.Materialize()
	var outs []fmt.Stringer
	for _, r := range runners {
		if streamOnly && !r.stream {
			continue
		}
		out, err := r.run(ent, cfg)
		if err != nil {
			return nil, time.Since(start), fmt.Errorf("%s: %w", r.name, err)
		}
		outs = append(outs, out)
	}
	elapsed := time.Since(start)
	// Render before Close: results may alias the mapped store.
	strs := make([]string, len(outs))
	for i, o := range outs {
		strs[i] = o.String()
	}
	start = time.Now()
	err = ent.Close()
	elapsed += time.Since(start)
	if s.fallbacks.Load() != before {
		err = errors.Join(err, errFallback)
	}
	return strs, elapsed, err
}

func setupPaper(dir string, seed uint64, users int, stream bool) (*instance, error) {
	s, err := newStore(dir, seed, users)
	if err != nil {
		return nil, err
	}
	in := &instance{items: float64(users * weeks)}
	if stream {
		// Streaming must reproduce the whole-heap outputs exactly (the
		// fold contract of DESIGN §4.8); the whole-heap run is the
		// reference.
		strs, _, err := s.run(true)
		if err != nil {
			return nil, fmt.Errorf("whole-heap reference: %w", err)
		}
		in.ref = digestStrings(strs)
		s.opts.StreamShard = streamShard
	}
	in.op = func() (opResult, error) {
		strs, elapsed, err := s.run(stream)
		return opResult{elapsed: elapsed, digest: digestStrings(strs)}, err
	}
	in.traced = func(rec *recorder) (string, error) { return paperTraced(rec, s, stream) }
	return in, nil
}

// paperTraced replays one op layer by layer — map, tail statistics,
// sweep, configure and evaluate the three utility policies, and for
// stream one pass over the shards — then times each runner on its own
// over a fresh enterprise.
func paperTraced(rec *recorder, s *store, stream bool) (string, error) {
	cfg := repro.DefaultExperimentConfig()
	before := s.fallbacks.Load()
	root := rec.open(0, "op")
	err := layerReplay(rec, root, s, stream, cfg)
	rec.close(root, 0)
	if err != nil {
		return "", err
	}
	var strs []string
	for _, r := range runners {
		if stream && !r.stream {
			continue
		}
		ent, err := repro.NewEnterprise(s.opts)
		if err != nil {
			return "", err
		}
		ent.Materialize()
		var out fmt.Stringer
		err = rec.span(0, "repro."+r.name, 1, func(int) error {
			var err error
			out, err = r.run(ent, cfg)
			return err
		})
		if err == nil {
			strs = append(strs, out.String())
		}
		if err := errors.Join(err, ent.Close()); err != nil {
			return "", fmt.Errorf("%s: %w", r.name, err)
		}
	}
	if s.fallbacks.Load() != before {
		return "", errFallback
	}
	return digestStrings(strs), nil
}

func layerReplay(rec *recorder, root int, s *store, stream bool, cfg repro.ExperimentConfig) error {
	var ws *analysis.Workspace
	err := rec.span(root, "snapshot.open", s.mib, func(int) error {
		var err error
		ws, err = analysis.Load(s.opts.SnapshotDir, s.key)
		return err
	})
	if err != nil {
		return err
	}
	defer ws.Close()
	if stream {
		ws.SetStreamShard(streamShard)
	}
	users := float64(ws.Users())
	all := features.All()
	quantiles := []float64{0.99, 0.999} // Fig 1's thresholds
	err = rec.span(root, "analysis.tailstats", users*float64(len(all)*len(quantiles)), func(int) error {
		for _, f := range all {
			for _, q := range quantiles {
				if _, err := ws.TailStats(f, cfg.TrainWeek, q); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	var sweep []float64
	rec.span(root, "analysis.sweep", users, func(int) error {
		sweep = ws.Sweep(cfg.Feature, cfg.TrainWeek, cfg.SweepPoints)
		return nil
	})
	pols := repro.Policies(core.UtilityOptimal{W: cfg.UtilityW})
	work := users * float64(len(pols))
	asns := make([]*core.Assignment, len(pols))
	err = rec.span(root, "core.configure", work, func(int) error {
		for i, pol := range pols {
			var err error
			if asns[i], err = ws.Assignment(cfg.Feature, cfg.TrainWeek, pol, sweep, fmt.Sprintf("sp%d", cfg.SweepPoints)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	overlay := sweepOverlay(ws.BinsPerWeek(), sweep)
	err = rec.span(root, "core.evaluate", work, func(int) error {
		if stream {
			for _, asn := range asns {
				if _, err := ws.EvaluateSharded(cfg.Feature, cfg.TestWeek, asn, overlay, 0); err != nil {
					return err
				}
			}
			return nil
		}
		test := ws.Raw(cfg.Feature, cfg.TestWeek)
		attack := make([][]float64, len(test))
		for u := range attack {
			attack[u] = overlay
		}
		for i, pol := range pols {
			_, err := core.EvaluatePolicy(core.EvalInput{
				Test: test, Attack: attack, AttackMagnitudes: sweep, Policy: pol, Assignment: asns[i],
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil || !stream {
		return err
	}
	return rec.span(root, "analysis.stream_pass", users, func(id int) error {
		var shards atomic.Int64
		err := ws.StreamShards(0, func(*analysis.Workspace, int, int) error {
			shards.Add(1)
			return nil
		})
		rec.count(id, "analysis.shards", float64(shards.Load()))
		return err
	})
}

// sweepOverlay is the paper runners' simulated attack: every 4th
// window carries the next size of the sweep.
func sweepOverlay(bins int, sweep []float64) []float64 {
	ov := make([]float64, bins)
	for b, k := 3, 0; b < bins; b, k = b+4, k+1 {
		ov[b] = sweep[k%len(sweep)]
	}
	return ov
}

func digestStrings(strs []string) string {
	h := sha256.New()
	for _, s := range strs {
		fmt.Fprintf(h, "%d\n%s", len(s), s)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ---------------------------------------------------------------------
// fleet and fleet-heal

func setupFleet(seed uint64, agents int, heal bool) (*instance, error) {
	pop, err := trace.NewPopulation(trace.Config{Users: agents, Weeks: weeks, Seed: seed})
	if err != nil {
		return nil, err
	}
	mats := make([]*features.Matrix, agents)
	par.ForEach(agents, 0, func(u int) { mats[u] = pop.Users[u].Series() })
	cfg := fleet.Config{
		Users: agents, Matrices: mats,
		Policy: core.Policy{Heuristic: core.Percentile{Q: 0.99}, Grouping: core.PartialDiversity{NumGroups: 8}},
		Attack: &fleet.AttackPlan{
			Kind: fleet.AttackNaive, Feature: features.TCP, Size: 500,
			FromBin: 24, ToBin: 48, VictimFraction: 0.3, Seed: seed ^ attackSalt,
		},
		Collab: &collab.Config{QuorumFraction: 0.1},
	}
	in := &instance{items: float64(agents * mats[0].BinsPerWeek())}
	if heal {
		// Healing faults must leave no trace in the outcome (the
		// convergence contract of DESIGN §4.7): the fault-free run is
		// the reference.
		base, err := fleet.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("fault-free reference: %w", err)
		}
		if in.ref, err = resultDigest(base); err != nil {
			return nil, err
		}
		quarter := make([]int, agents/4)
		for h := range quarter {
			quarter[h] = h
		}
		cfg.Faults = &netsim.FaultPlan{
			Seed: seed ^ faultSalt, DropProb: 0.2, ResetProb: 0.1, HealTick: 4,
			Partitions: []netsim.Partition{{Hosts: quarter, From: 2, To: 4}},
		}
	}
	in.op = func() (opResult, error) {
		start := time.Now()
		res, err := fleet.Run(cfg)
		r := opResult{elapsed: time.Since(start)}
		if err != nil {
			return r, err
		}
		r.digest, err = resultDigest(res)
		return r, err
	}
	in.traced = func(rec *recorder) (string, error) { return fleetTraced(rec, cfg) }
	return in, nil
}

// resultDigest is the SHA-256 of a fleet Result's JSON encoding, which
// is exact for its field types: equal digests mean deeply equal
// Results.
func resultDigest(res *fleet.Result) (string, error) {
	js, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(js)
	return hex.EncodeToString(sum[:]), nil
}

// fleetLog timestamps the console's log lines of one fleet run.
type fleetLog struct {
	hosts int

	mu           sync.Mutex
	seen         map[any]bool // host IDs that have connected
	connects     int
	allUp        time.Time // every host has connected once
	configured   time.Time // thresholds computed and being pushed
	dupBatches   int
	staleUploads int
	epochs       int
}

// logf matches on the format strings of internal/console's log lines.
func (l *fleetLog) logf(format string, args ...any) {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case strings.HasPrefix(format, "console: host %d connected"):
		l.connects++
		l.seen[args[0]] = true
		if len(l.seen) == l.hosts && l.allUp.IsZero() {
			l.allUp = now
		}
	case strings.HasPrefix(format, "console: policy") && l.configured.IsZero():
		l.configured = now
	case strings.Contains(format, "re-sent alert batch"):
		l.dupBatches++
	case strings.Contains(format, "re-sent epoch"):
		l.staleUploads++
	case strings.HasPrefix(format, "console: epoch"):
		l.epochs++
	}
}

// fleetTraced runs the fleet with its console log lines timestamped,
// which splits the run into connect, configure and replay, then probes
// the compute inside configuration and collaborative detection from
// outside.
func fleetTraced(rec *recorder, cfg fleet.Config) (string, error) {
	lg := &fleetLog{hosts: cfg.Users, seen: make(map[any]bool)}
	cfg.Logf = lg.logf
	start := time.Now()
	res, err := fleet.Run(cfg)
	end := time.Now()
	if err != nil {
		return "", err
	}
	if lg.allUp.IsZero() || lg.configured.IsZero() {
		return "", errors.New("fleet run logged no connect or configure line")
	}
	hosts := float64(cfg.Users)
	windows := float64(res.TestBins)
	root := rec.add(0, "op", start, end, 0)
	rec.add(root, "fleet.connect", start, lg.allUp, hosts)
	rec.add(root, "console.configure", lg.allUp, lg.configured, hosts)
	rec.add(root, "fleet.replay", lg.configured, end, hosts*windows)
	rec.count(root, "console.alerts_per_s", float64(res.TotalAlerts)/end.Sub(lg.configured).Seconds())
	rec.count(root, "console.reconnects", float64(lg.connects-cfg.Users))
	rec.count(root, "console.dup_batches_dropped", float64(lg.dupBatches))
	rec.count(root, "console.stale_uploads_dropped", float64(lg.staleUploads))
	rec.count(root, "console.epochs", float64(lg.epochs))
	lag := -1
	for b := cfg.Attack.FromBin; b < len(res.FleetEvents); b++ {
		if res.FleetEvents[b] {
			lag = b - cfg.Attack.FromBin
			break
		}
	}
	rec.count(root, "collab.detect_lag_windows", float64(lag))

	bpw := cfg.Matrices[0].BinsPerWeek()
	err = rec.span(0, "core.configure_probe", hosts, func(int) error {
		train := make([]*stats.Empirical, len(cfg.Matrices))
		for u, m := range cfg.Matrices {
			var err error
			if train[u], err = m.Distribution(res.WatchFeature, 0, bpw); err != nil {
				return err
			}
		}
		_, err := core.Configure(train, cfg.Policy, cfg.AttackMagnitudes)
		return err
	})
	if err != nil {
		return "", err
	}
	err = rec.span(0, "collab.detect", hosts*windows, func(int) error {
		det, err := collab.New(*cfg.Collab)
		if err != nil {
			return err
		}
		_, err = det.Evaluate(res.Alarms, res.AttackedWindows)
		return err
	})
	if err != nil {
		return "", err
	}
	return resultDigest(res)
}
