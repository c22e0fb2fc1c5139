// Package repro is the public API of the reproduction of "Impact of
// IT Monoculture on Behavioral End Host Intrusion Detection"
// (Barman, Chandrashekar, Taft, Faloutsos, Huang, Giroire — WREN/
// SIGCOMM workshop 2009).
//
// It wires together the internal substrates — synthetic enterprise
// trace generation, packet-level feature extraction, threshold
// heuristics, grouping policies, attacker models and the management
// plane — behind a small surface:
//
//	ent, _ := repro.NewEnterprise(repro.Options{Users: 350, Weeks: 2, Seed: 1})
//	res, _ := repro.Fig3a(ent, repro.DefaultExperimentConfig())
//	fmt.Println(res)
//
// Every table and figure of the paper's evaluation has a runner in
// experiments.go (Fig1 … Fig5b, Table2, Table3); each returns a
// structured result whose String method renders the same rows or
// series the paper plots. See EXPERIMENTS.md for paper-vs-measured
// values and DESIGN.md for the substitutions made for the
// proprietary inputs.
package repro

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// Options configures a synthetic enterprise.
type Options struct {
	// Users is the end-host population size (the paper's is 350).
	Users int
	// Weeks of capture (the paper has 5; experiments need >= 2 for
	// the train-week/test-week methodology).
	Weeks int
	// Seed makes the enterprise reproducible.
	Seed uint64
	// BinWidth is the aggregation window (default 15 minutes).
	BinWidth time.Duration
	// SnapshotDir enables the on-disk workspace store: Materialize
	// first tries to map an existing snapshot of this exact enterprise
	// (content-addressed by seed, population, weeks, bin width and
	// engine version) as a zero-copy workspace; on a miss it streams
	// the population through sharded materialization into the
	// directory and maps the result, so warm runs skip generation
	// entirely and cold runs never hold the whole population in
	// memory. Stale or corrupt files silently fall back to
	// regeneration. Empty means the REPRO_SNAPSHOT_DIR environment
	// variable, then (still empty) fully in-memory materialization.
	SnapshotDir string
	// SnapshotShard bounds how many users a cold build holds in
	// memory at once, per part builder; <= 0 means
	// snapshot.DefaultShardUsers. Ignored without a snapshot
	// directory.
	SnapshotShard int
	// SnapshotWorkers is how many part builders a cold
	// materialization runs at once: the build coordinator
	// (internal/buildctl, the one path by which cmd/tracegen seals a
	// store too) cuts the population into that many weight-balanced
	// ranges, seals each as a verified part and splices them into the
	// store. <= 1 builds one range. The sealed bytes are identical for
	// every worker count. Ignored without a snapshot directory.
	SnapshotWorkers int
	// StreamShard bounds the heap of a mapped snapshot workspace:
	// population-wide analyses, which always run shard by shard, cut
	// shards of at most this many users and release each shard's pages
	// as they finish, so peak RSS tracks the shard size instead of the
	// population. Results are bit-identical to unbounded evaluation,
	// which cuts one shard per CPU and keeps every page. Zero means the
	// REPRO_STREAM_SHARD environment variable, then (still zero)
	// unbounded; a negative or malformed value is reported through
	// Warnf and also runs unbounded. Ignored without a snapshot-backed
	// workspace.
	StreamShard int
	// Warnf receives non-fatal operational warnings — snapshot store
	// fallbacks (stale/corrupt file rejected, unwritable directory)
	// that would otherwise regenerate silently, and an unusable stream
	// shard size. Default: stderr.
	Warnf func(format string, args ...any)
}

// Enterprise is a generated population together with its lazily
// materialized per-user feature matrices and the columnar analysis
// workspace every experiment runner shares (pre-sorted per-user ×
// per-week × per-feature views, memoized distributions, cached
// attack sweeps and threshold configurations). It is safe for
// concurrent use after construction.
type Enterprise struct {
	// Pop is the underlying synthetic population.
	Pop *trace.Population

	once     []sync.Once
	matrices []*features.Matrix

	snapDir     string
	snapShard   int
	snapWorkers int
	streamShard int
	warnf       func(format string, args ...any)

	wsOnce sync.Once
	// ws is published atomically once materialization completes, so
	// accessors that must not *trigger* a build (Matrix, Close) can
	// still observe a finished one race-free.
	ws atomic.Pointer[analysis.Workspace]
}

// NewEnterprise generates a deterministic enterprise from opts.
func NewEnterprise(opts Options) (*Enterprise, error) {
	pop, err := trace.NewPopulation(trace.Config{
		Users:    opts.Users,
		Weeks:    opts.Weeks,
		Seed:     opts.Seed,
		BinWidth: opts.BinWidth,
	})
	if err != nil {
		return nil, err
	}
	dir := opts.SnapshotDir
	if dir == "" {
		dir = os.Getenv("REPRO_SNAPSHOT_DIR")
	}
	warnf := opts.Warnf
	if warnf == nil {
		warnf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "repro: "+format+"\n", args...)
		}
	}
	streamShard := opts.StreamShard
	if env := os.Getenv("REPRO_STREAM_SHARD"); streamShard == 0 && env != "" {
		if n, err := strconv.Atoi(env); err != nil {
			warnf("REPRO_STREAM_SHARD=%q is not a user count; evaluating unbounded", env)
		} else {
			streamShard = n
		}
	}
	if streamShard < 0 {
		warnf("stream shard %d is negative; evaluating unbounded", streamShard)
		streamShard = 0
	}
	return &Enterprise{
		Pop:         pop,
		once:        make([]sync.Once, len(pop.Users)),
		matrices:    make([]*features.Matrix, len(pop.Users)),
		snapDir:     dir,
		snapShard:   opts.SnapshotShard,
		snapWorkers: opts.SnapshotWorkers,
		streamShard: streamShard,
		warnf:       warnf,
	}, nil
}

// Users returns the population size.
func (e *Enterprise) Users() int { return len(e.Pop.Users) }

// Matrix returns user u's feature matrix, materializing it on first
// use with the week-batched trace generator. A fully materialized
// enterprise already holds every matrix — snapshot-backed workspaces
// serve zero-copy mapped views (read-only; Clone before mutating) —
// so the per-user generator only runs when the workspace has not
// been built yet.
func (e *Enterprise) Matrix(u int) *features.Matrix {
	e.once[u].Do(func() {
		if ws := e.ws.Load(); ws != nil {
			e.matrices[u] = ws.Matrices()[u]
			return
		}
		e.matrices[u] = e.Pop.Users[u].Series()
	})
	return e.matrices[u]
}

// Materialize generates every user's matrix and builds the columnar
// analysis workspace in one fused parallel pass: each worker runs the
// batch generation engine for its user and extracts + sorts the
// user's feature-week columns while the rows are cache-hot.
// Experiments call it up front so their own timings exclude
// generation. With a snapshot directory configured (Options or
// REPRO_SNAPSHOT_DIR) the workspace is instead mapped from — or, on a
// miss, streamed shard by shard into — the on-disk store.
func (e *Enterprise) Materialize() {
	e.workspace()
}

// snapshotKey content-addresses this enterprise in the snapshot
// store. Pop.Cfg is already normalized, so the key's defaulted fields
// (start time, heavy fraction, trend) are exactly what generation ran
// under.
func (e *Enterprise) snapshotKey() (snapshot.Key, error) {
	return snapshot.KeyFor(e.Pop.Cfg)
}

// Close releases the enterprise's snapshot mapping when its workspace
// was loaded from the on-disk store (no-op otherwise). The enterprise
// must not be used afterwards — every view its workspace served is
// invalid once the mapping is gone. Only needed by callers that churn
// through many enterprises in one process (benchmarks, sweeps);
// letting the process exit is equivalent.
func (e *Enterprise) Close() error {
	if ws := e.ws.Load(); ws != nil {
		return ws.Close()
	}
	return nil
}

// workspace returns the enterprise's columnar analysis workspace,
// building it (and all matrices) on first use.
func (e *Enterprise) workspace() *analysis.Workspace {
	e.wsOnce.Do(func() {
		e.ws.Store(e.buildWorkspace())
	})
	return e.ws.Load()
}

func (e *Enterprise) buildWorkspace() *analysis.Workspace {
	if e.snapDir != "" {
		if key, err := e.snapshotKey(); err == nil {
			// Warm: map the existing snapshot, skipping generation
			// entirely. Cold (or stale/corrupt, which Load rejects):
			// stream the population into the store in bounded shards
			// and map the result. Any failure — unwritable directory,
			// full disk, … — falls through to the in-memory build
			// rather than failing the run, but is surfaced through
			// Warnf so operators can tell a fallback from a warm map.
			ws, _, err := analysis.LoadOrMaterialize(context.Background(), e.snapDir, key, e.snapShard, e.snapWorkers, e.Pop.CostWeights(),
				func(stage string, werr error) {
					e.warnf("snapshot %s fallback (%s): %v", stage, e.snapDir, werr)
				},
				func(u int, rows [][features.NumFeatures]float64) {
					e.Pop.Users[u].FillSeries(rows)
				})
			if err == nil {
				ws.SetStreamShard(e.streamShard)
				return ws
			}
		}
	}
	// In-memory fused build. All users' rows live in one slab, so
	// the parallel materialize loop costs one allocation for the
	// whole population's matrices instead of one per user.
	bins := e.Pop.Cfg.TotalBins()
	slab := make([][features.NumFeatures]float64, len(e.matrices)*bins)
	return analysis.NewGenerated(len(e.matrices), func(u int) *features.Matrix {
		e.once[u].Do(func() {
			rows := slab[u*bins : (u+1)*bins : (u+1)*bins]
			e.matrices[u] = e.Pop.Users[u].SeriesInto(rows)
		})
		return e.matrices[u]
	})
}

// TailStats returns every user's q-quantile of one feature over the
// given week (the per-user thresholds Fig 1 plots). Results come
// from the workspace's memoized quantile vectors; the returned slice
// is a fresh copy the caller may reorder.
func (e *Enterprise) TailStats(f features.Feature, week int, q float64) ([]float64, error) {
	tails, err := e.workspace().TailStats(f, week, q)
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	return append([]float64(nil), tails...), nil
}

// Policies returns the paper's three grouping policies under one
// heuristic, in presentation order: homogeneous, full diversity,
// 8-partial.
func Policies(h core.Heuristic) []core.Policy {
	return []core.Policy{
		{Heuristic: h, Grouping: core.Homogeneous{}},
		{Heuristic: h, Grouping: core.FullDiversity{}},
		{Heuristic: h, Grouping: core.PartialDiversity{NumGroups: 8}},
	}
}
