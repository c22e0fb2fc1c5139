package repro

// One benchmark per paper table/figure (the names match DESIGN.md's
// per-experiment index), plus ablation benches for the design choices
// DESIGN.md §5 calls out. Each bench measures the analysis cost on a
// paper-scale enterprise (350 users); trace materialization is done
// once, outside the timed region, so the numbers isolate the
// policy/evaluation machinery.
//
// Run with:
//
//	go test -bench=. -benchmem .

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/snapshot"
	"repro/internal/stats"
	"repro/internal/xrand"
)

var (
	benchEntOnce sync.Once
	benchEnt     *Enterprise
)

// benchEnterprise returns the shared paper-scale enterprise: 350
// users, 2 weeks (train + test).
func benchEnterprise(b *testing.B) *Enterprise {
	b.Helper()
	benchEntOnce.Do(func() {
		ent, err := NewEnterprise(Options{Users: 350, Weeks: 2, Seed: 1})
		if err != nil {
			panic(err)
		}
		ent.Materialize()
		benchEnt = ent
	})
	return benchEnt
}

func BenchmarkFig1TailDiversity(b *testing.B) {
	e := benchEnterprise(b)
	cfg := DefaultExperimentConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fig1(e, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2FeatureScatter(b *testing.B) {
	e := benchEnterprise(b)
	cfg := DefaultExperimentConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fig2(e, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2BestUsers(b *testing.B) {
	e := benchEnterprise(b)
	cfg := DefaultExperimentConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Table2(e, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3aUtilityBoxplots(b *testing.B) {
	e := benchEnterprise(b)
	cfg := DefaultExperimentConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fig3a(e, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3bUtilityVsWeight(b *testing.B) {
	e := benchEnterprise(b)
	cfg := DefaultExperimentConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fig3b(e, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3ConsoleAlarms(b *testing.B) {
	e := benchEnterprise(b)
	cfg := DefaultExperimentConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Table3(e, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4aNaiveAttacker(b *testing.B) {
	e := benchEnterprise(b)
	cfg := DefaultExperimentConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fig4a(e, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4bResourcefulAttacker(b *testing.B) {
	e := benchEnterprise(b)
	cfg := DefaultExperimentConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fig4b(e, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5aStormHomogVsDiversity(b *testing.B) {
	e := benchEnterprise(b)
	cfg := DefaultExperimentConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fig5a(e, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5bStormDiversityVs8Partial(b *testing.B) {
	e := benchEnterprise(b)
	cfg := DefaultExperimentConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fig5b(e, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §5)

// BenchmarkAblationBinWidth re-runs the Fig 3(a) pipeline at a
// 5-minute aggregation window (the paper's alternative binning) on a
// smaller population; the reported metric of interest is printed via
// b.ReportMetric as the diversity-minus-homogeneous utility gap.
func BenchmarkAblationBinWidth(b *testing.B) {
	for _, width := range []time.Duration{5 * time.Minute, 15 * time.Minute} {
		b.Run(width.String(), func(b *testing.B) {
			ent, err := NewEnterprise(Options{Users: 60, Weeks: 2, Seed: 5, BinWidth: width})
			if err != nil {
				b.Fatal(err)
			}
			ent.Materialize()
			cfg := DefaultExperimentConfig()
			b.ResetTimer()
			var gap float64
			for i := 0; i < b.N; i++ {
				res, err := Fig3a(ent, cfg)
				if err != nil {
					b.Fatal(err)
				}
				gap = res.Boxplots[1].Median - res.Boxplots[0].Median
			}
			b.ReportMetric(gap, "utility-gap")
		})
	}
}

// BenchmarkAblationGroupCount sweeps the partial-diversity group
// count (2, 3, 5, 8 — the paper's §5 settings) and reports the mean
// utility each achieves.
func BenchmarkAblationGroupCount(b *testing.B) {
	e := benchEnterprise(b)
	cfg := DefaultExperimentConfig()
	train, test := e.TrainTest(cfg.Feature, cfg.TrainWeek, cfg.TestWeek)
	sweep := e.AttackSweep(cfg.Feature, cfg.TrainWeek, cfg.SweepPoints)
	overlay := make([][]float64, len(test))
	for u := range overlay {
		overlay[u] = sweepOverlay(len(test[u]), sweep)
	}
	for _, k := range []int{2, 3, 5, 8} {
		b.Run(core.PartialDiversity{NumGroups: k}.Name(), func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				res, err := core.EvaluatePolicy(core.EvalInput{
					Train: train, Test: test, Attack: overlay,
					AttackMagnitudes: sweep,
					Policy: core.Policy{
						Heuristic: core.Percentile{Q: 0.99},
						Grouping:  core.PartialDiversity{NumGroups: k},
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				mean = res.MeanUtility(cfg.UtilityW)
			}
			b.ReportMetric(mean, "mean-utility")
		})
	}
}

// BenchmarkAblationHeuristics compares the threshold heuristic
// families of §4 under full diversity.
func BenchmarkAblationHeuristics(b *testing.B) {
	e := benchEnterprise(b)
	cfg := DefaultExperimentConfig()
	train, test := e.TrainTest(cfg.Feature, cfg.TrainWeek, cfg.TestWeek)
	sweep := e.AttackSweep(cfg.Feature, cfg.TrainWeek, cfg.SweepPoints)
	overlay := make([][]float64, len(test))
	for u := range overlay {
		overlay[u] = sweepOverlay(len(test[u]), sweep)
	}
	for _, h := range []core.Heuristic{
		core.Percentile{Q: 0.99},
		core.Percentile{Q: 0.999},
		core.MeanSigma{K: 3},
		core.UtilityOptimal{W: 0.4},
		core.FMeasureOptimal{},
	} {
		b.Run(h.Name(), func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				res, err := core.EvaluatePolicy(core.EvalInput{
					Train: train, Test: test, Attack: overlay,
					AttackMagnitudes: sweep,
					Policy:           core.Policy{Heuristic: h, Grouping: core.FullDiversity{}},
				})
				if err != nil {
					b.Fatal(err)
				}
				mean = res.MeanUtility(cfg.UtilityW)
			}
			b.ReportMetric(mean, "mean-utility")
		})
	}
}

// BenchmarkHeuristicThreshold isolates one Threshold call per
// heuristic family on a single user-week training column (672
// windows) with the standard 24-point attack sweep — the unit of work
// the threshold-frontier engine optimizes. Percentile is the
// O(1)-after-sort floor the objective heuristics are measured
// against.
func BenchmarkHeuristicThreshold(b *testing.B) {
	r := xrand.New(41)
	v := make([]float64, 672)
	for i := range v {
		v[i] = math.Floor(r.LogNormal(3, 1.2))
	}
	train := stats.MustEmpirical(v)
	sweep := geomSpace(1, train.Max(), 24)
	for _, tc := range []struct {
		name string
		h    core.Heuristic
	}{
		{"percentile", core.Percentile{Q: 0.99}},
		{"utility", core.UtilityOptimal{W: 0.4}},
		{"f-measure", core.FMeasureOptimal{}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tc.h.Threshold(train, sweep); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDrift measures the week-over-week threshold
// instability the paper reports in §6.1: the mean realized FP rate
// when a 99th-percentile threshold from week 1 is applied to week 2
// (nominal would be exactly 0.01).
func BenchmarkAblationDrift(b *testing.B) {
	e := benchEnterprise(b)
	train, test := e.TrainTest(features.TCP, 0, 1)
	var realized float64
	for i := 0; i < b.N; i++ {
		var sum float64
		for u := range train {
			d := stats.MustEmpirical(train[u])
			thr := d.MustQuantile(0.99)
			c, err := core.Evaluate(test[u], nil, thr)
			if err != nil {
				b.Fatal(err)
			}
			sum += c.FalsePositiveRate()
		}
		realized = sum / float64(len(train))
	}
	b.ReportMetric(realized, "realized-FP")
}

// BenchmarkEnterpriseGeneration measures the trace generator's fast
// path end to end: one user-week of all six features.
func BenchmarkEnterpriseGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ent, err := NewEnterprise(Options{Users: 1, Weeks: 1, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		_ = ent.Matrix(0)
	}
}

// BenchmarkGenerateUsers5000 measures the fused batch materialization
// at ROADMAP scale: 5000 users × 1 week generated by the week-batched
// engine straight into a warmed columnar workspace (matrices plus
// every sorted feature-week column). The user-bins/s metric is the
// generation-throughput figure EXPERIMENTS.md tracks.
func BenchmarkGenerateUsers5000(b *testing.B) {
	const users, weeks = 5000, 1
	for i := 0; i < b.N; i++ {
		ent, err := NewEnterprise(Options{Users: users, Weeks: weeks, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		ent.Materialize()
	}
	bins := float64(users) * float64(weeks) * 672
	b.ReportMetric(bins*float64(b.N)/b.Elapsed().Seconds(), "user-bins/s")
}

// ---------------------------------------------------------------------------
// Snapshot store (cold vs warm materialization)

// BenchmarkSnapshotLoad5000 measures the warm path at ROADMAP scale:
// mapping the 5000-user × 2-week workspace back from a sealed
// snapshot (header + checksum validation plus zero-copy view
// construction) through the public enterprise API. The snapshot is
// written once outside the timed region; the cold counterpart of this
// number is scaleEnterprise's Materialize (see EXPERIMENTS.md's
// cold-vs-warm table).
func BenchmarkSnapshotLoad5000(b *testing.B) {
	if testing.Short() {
		b.Skip("snapshot setup saves a ~1 GB store; skipped in short mode (CI bench-smoke)")
	}
	e := scaleEnterprise(b)
	dir := b.TempDir()
	if _, err := e.SaveSnapshot(dir); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ent, err := NewEnterprise(Options{Users: 5000, Weeks: 2, Seed: 1, SnapshotDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		ent.Materialize()
		b.StopTimer()
		if err := ent.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkMaterializeSharded20000 measures the cold sharded path at
// 4x ROADMAP scale: 20000 users × 1 week streamed through
// 1024-user shards into a snapshot and mapped back, so peak heap
// stays bounded by the shard buffer while the full enterprise lands
// on disk. Each iteration writes a fresh store (a second pass over
// the same directory would be a warm hit and measure nothing).
func BenchmarkMaterializeSharded20000(b *testing.B) {
	if testing.Short() {
		b.Skip("writes a ~2 GB store per iteration; skipped in short mode (CI bench-smoke)")
	}
	const users, weeks = 20000, 1
	root := b.TempDir()
	for i := 0; i < b.N; i++ {
		dir := filepath.Join(root, fmt.Sprint(i))
		ent, err := NewEnterprise(Options{
			Users: users, Weeks: weeks, Seed: uint64(i + 1),
			SnapshotDir: dir, SnapshotShard: 1024,
		})
		if err != nil {
			b.Fatal(err)
		}
		ent.Materialize()
		b.StopTimer()
		if err := ent.Close(); err != nil {
			b.Fatal(err)
		}
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	bins := float64(users) * float64(weeks) * 672
	b.ReportMetric(bins*float64(b.N)/b.Elapsed().Seconds(), "user-bins/s")
}

// BenchmarkOpenUser20000 measures the manifest-backed O(record) read
// (snapshot.ReadUser) at 4x ROADMAP scale: fetching one user's record
// from a sealed 20000-user store checks the manifest, folds its record
// table against the shard table and the header, and reads and checks
// the one record, never the other ~2 GB of payload. The full-open-x
// metric is the contrast: how many times cheaper this is than
// snapshot.Open, which checks every record and maps the entire store
// (measured here outside the timed region). The name predates
// ReadUser; it is kept so the recorded rows stay comparable.
func BenchmarkOpenUser20000(b *testing.B) {
	if testing.Short() {
		b.Skip("setup writes a ~2 GB store; skipped in short mode (CI bench-smoke)")
	}
	const users, weeks = 20000, 1
	dir := b.TempDir()
	ent, err := NewEnterprise(Options{
		Users: users, Weeks: weeks, Seed: 1,
		SnapshotDir: dir, SnapshotShard: 1024, SnapshotWorkers: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	ent.Materialize()
	key := ent.key
	if err := ent.Close(); err != nil {
		b.Fatal(err)
	}
	// Warm reads are the pinned number: cycle a fixed set of users
	// (16 records, faulted in before the timer) so the loop measures
	// the validation-work asymmetry — manifest plus one record versus
	// the whole store — and not the page cache state the preceding
	// multi-gigabyte benches left behind.
	openUser := func(i int) {
		u := (i % 16) * (users / 16)
		m, err := snapshot.ReadUser(dir, key, u)
		if err != nil {
			b.Fatal(err)
		}
		_ = m.Rows[0]
	}
	for i := 0; i < 16; i++ {
		openUser(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		openUser(i)
	}
	perUser := b.Elapsed().Seconds() / float64(b.N)
	b.StopTimer()
	const fullOpens = 3
	start := time.Now()
	for i := 0; i < fullOpens; i++ {
		s, err := snapshot.Open(dir, key)
		if err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
	full := time.Since(start).Seconds() / fullOpens
	b.ReportMetric(full/perUser, "full-open-x")
}

// benchPeakRSS reads the process peak resident set (VmHWM) so the
// bounded-heap benches can report what streaming actually bounds —
// mapped snapshot pages count toward RSS but never toward Go heap
// metrics. Best-effort: 0 where /proc is unavailable.
func benchPeakRSS() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kb * 1024
		}
	}
	return 0
}

// benchResetPeakRSS rearms VmHWM ("5" in clear_refs) so the reported
// peak excludes setup (store seeding faults in far more than the
// bounded evaluation ever will). Best-effort.
func benchResetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0o200)
}

// BenchmarkEvaluateSharded100k is the bounded-heap guard at the
// ISSUE's target scale: a 100k-user × 2-week store analyzed end to
// end (map + validate, streaming Fig3a configure/evaluate, Table3)
// through 512-user shards, with the peak-rss-bytes metric recording
// what the shard-by-shard iteration actually held resident. The store
// is seeded once outside the timed region (REPRO_BENCH_STORE reuses a
// prior seeding across runs; default seeds a temp dir, ~19 GB).
func BenchmarkEvaluateSharded100k(b *testing.B) {
	if testing.Short() {
		b.Skip("seeds a ~19 GB store; skipped in short mode (CI bench-smoke)")
	}
	const users, weeks = 100_000, 2
	dir := os.Getenv("REPRO_BENCH_STORE")
	if dir == "" {
		dir = b.TempDir()
	}
	seed, err := NewEnterprise(Options{
		Users: users, Weeks: weeks, Seed: 1,
		SnapshotDir: dir, SnapshotShard: 1024,
	})
	if err != nil {
		b.Fatal(err)
	}
	seed.Materialize()
	if err := seed.Close(); err != nil {
		b.Fatal(err)
	}
	cfg := DefaultExperimentConfig()
	benchResetPeakRSS()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ent, err := NewEnterprise(Options{
			Users: users, Weeks: weeks, Seed: 1,
			SnapshotDir: dir, StreamShard: 512,
		})
		if err != nil {
			b.Fatal(err)
		}
		ent.Materialize()
		if _, err := Fig3a(ent, cfg); err != nil {
			b.Fatal(err)
		}
		if _, err := Table3(ent, cfg); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := ent.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(benchPeakRSS(), "peak-rss-bytes")
}

// BenchmarkStreamRunners1000 times the five shard-routed runners (Fig
// 3a, Fig 3b, Table 3, Fig 4a, Fig 4b) over a sealed 1000-user ×
// 2-week store bounded to 128-user shards, the shape of hidsbench's
// stream workload.
func BenchmarkStreamRunners1000(b *testing.B) { benchShardRunners1000(b, 128) }

// BenchmarkWholeHeapRunners1000 is BenchmarkStreamRunners1000 over the
// same store unarmed: unbounded, four shards per CPU, no pages released.
// Together they guard both sides of the bounded/unbounded choice.
func BenchmarkWholeHeapRunners1000(b *testing.B) { benchShardRunners1000(b, 0) }

// benchShardRunners1000 times the five shard-routed runners over a
// sealed 1000-user × 2-week store with the given StreamShard. Each op
// maps the store into a fresh enterprise, so no memo carries over
// between ops. The store is sealed once outside the timed region;
// peak-rss-bytes is the VmHWM over the timed ops.
func benchShardRunners1000(b *testing.B, streamShard int) {
	opts := Options{Users: 1000, Weeks: 2, Seed: 1, SnapshotDir: b.TempDir()}
	build := opts
	build.SnapshotWorkers = runtime.GOMAXPROCS(0)
	seed, err := NewEnterprise(build)
	if err != nil {
		b.Fatal(err)
	}
	seed.Materialize()
	if err := seed.Close(); err != nil {
		b.Fatal(err)
	}
	opts.StreamShard = streamShard
	cfg := DefaultExperimentConfig()
	runners := []func(*Enterprise, ExperimentConfig) error{
		func(e *Enterprise, c ExperimentConfig) error { _, err := Fig3a(e, c); return err },
		func(e *Enterprise, c ExperimentConfig) error { _, err := Fig3b(e, c); return err },
		func(e *Enterprise, c ExperimentConfig) error { _, err := Table3(e, c); return err },
		func(e *Enterprise, c ExperimentConfig) error { _, err := Fig4a(e, c); return err },
		func(e *Enterprise, c ExperimentConfig) error { _, err := Fig4b(e, c); return err },
	}
	b.ReportAllocs()
	benchResetPeakRSS()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ent, err := NewEnterprise(opts)
		if err != nil {
			b.Fatal(err)
		}
		ent.Materialize()
		for _, run := range runners {
			if err := run(ent, cfg); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if err := ent.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(benchPeakRSS(), "peak-rss-bytes")
}

// ---------------------------------------------------------------------------
// Scale (ROADMAP north star)

var (
	scaleEntOnce sync.Once
	scaleEnt     *Enterprise
)

// scaleEnterprise returns a shared 5000-user enterprise — 14x the
// paper's population. Before the columnar workspace this scale was
// impractical: every runner re-copied and re-sorted 5000 x 672
// columns per (feature, quantile) pair.
func scaleEnterprise(b *testing.B) *Enterprise {
	b.Helper()
	scaleEntOnce.Do(func() {
		ent, err := NewEnterprise(Options{Users: 5000, Weeks: 2, Seed: 1})
		if err != nil {
			panic(err)
		}
		ent.Materialize()
		scaleEnt = ent
	})
	return scaleEnt
}

func BenchmarkScaleFig1Users5000(b *testing.B) {
	e := scaleEnterprise(b)
	cfg := DefaultExperimentConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fig1(e, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScaleFig3aUsers5000(b *testing.B) {
	e := scaleEnterprise(b)
	cfg := DefaultExperimentConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fig3a(e, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScaleFig3bUsers5000(b *testing.B) {
	e := scaleEnterprise(b)
	cfg := DefaultExperimentConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fig3b(e, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScaleTable3Users5000(b *testing.B) {
	e := scaleEnterprise(b)
	cfg := DefaultExperimentConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Table3(e, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
