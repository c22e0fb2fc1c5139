package analysis

// The snapshot integration: a materialized Workspace is a pure
// function of its generation key, so it is computed once, persisted
// in internal/snapshot's columnar format, and mapped back as
// zero-copy views.
//
//   - Save serializes any workspace (rows are copied out of its
//     matrices; sorted columns and day views are recomputed from the
//     rows, which is bit-identical to the in-memory build because
//     sorting the same column yields the same slice).
//   - Load maps a snapshot and builds a workspace whose matrices,
//     sorted columns, distributions and day views alias the mapping.
//     Only the raw time-ordered columns are copied, per block and only
//     when Raw asks: rows interleave the six features, so a raw column
//     is the one view the file cannot serve as a contiguous run.
//   - MaterializeSharded streams a population through bounded
//     user-shards straight into a snapshot writer — generate, derive,
//     append, release — so peak heap is O(shard × record), not
//     O(users × record), then Loads the result. The returned
//     workspace is bit-identical to NewGenerated over the same
//     generator.

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"sort"
	"sync"
	"unsafe"

	"repro/internal/features"
	"repro/internal/par"
	"repro/internal/snapshot"
)

// DefaultShardUsers is the shard granularity used when a caller does
// not choose one: large enough to keep every core busy inside a
// shard, small enough that a shard buffer stays in the tens of
// megabytes at paper-scale geometries.
const DefaultShardUsers = 512

// Save writes the workspace to dir under the content-addressed key,
// returning the sealed file's path. The key's geometry must match the
// workspace; the key's generation fields (seed, trend, …) are the
// caller's assertion of where the matrices came from — Save cannot
// verify them, exactly as a build cache trusts its own key.
func (w *Workspace) Save(dir string, key snapshot.Key) (string, error) {
	lay := key.Layout()
	if key.Users != w.users || key.Weeks != w.weeks ||
		key.BinWidth != w.binWidth || lay.BinsPerWeek != w.binsPerWeek {
		return "", fmt.Errorf("analysis: snapshot key geometry (%d users, %d weeks, %v bins) does not match workspace (%d, %d, %v)",
			key.Users, key.Weeks, key.BinWidth, w.users, w.weeks, w.binWidth)
	}
	if sm := w.matrices[0].StartMicros; sm != key.StartMicros {
		return "", fmt.Errorf("analysis: snapshot key start %d does not match workspace start %d", key.StartMicros, sm)
	}
	wr, err := snapshot.Create(dir, key)
	if err != nil {
		return "", err
	}
	if err := writeRecords(context.Background(), wr, w.users, DefaultShardUsers, func(u int, rec []float64) {
		copy(rowsView(rec, lay), w.matrices[u].Rows)
		fillDerived(rec, lay)
	}); err != nil {
		wr.Abort()
		return "", err
	}
	if err := wr.Finish(); err != nil {
		return "", err
	}
	return key.Path(dir), nil
}

// Load maps the snapshot addressed by key under dir into a zero-copy
// workspace. Everything the workspace serves that the file holds —
// matrices, sorted columns, the distributions adopting them, day
// views — aliases the read-only mapping; mutating any of it faults.
// Load itself only maps and checksums the file (the warm path is two
// orders of magnitude cheaper than regeneration); per-(feature, week)
// views are wired on first use by the workspace's existing lazy block
// machinery. A missing, stale (engine or key mismatch) or corrupt
// (size or checksum) file returns an error and the caller
// regenerates. Close the workspace to release the mapping once
// nothing reads from it anymore.
func Load(dir string, key snapshot.Key) (*Workspace, error) {
	snap, err := snapshot.Open(dir, key)
	if err != nil {
		return nil, err
	}
	lay := snap.Layout()
	users, weeks, bpw := lay.Users, lay.Weeks, lay.BinsPerWeek
	nBlocks := weeks * features.NumFeatures
	w := &Workspace{
		users:       users,
		weeks:       weeks,
		binsPerWeek: bpw,
		binWidth:    key.BinWidth,
		blocks:      make([]*block, nBlocks),
		blockOnce:   make([]sync.Once, nBlocks),
		memo:        make(map[string]*memoCell),
		snap:        snap,
	}
	matSlab := make([]features.Matrix, users)
	w.matrices = make([]*features.Matrix, users)
	for u := range w.matrices {
		matSlab[u] = features.Matrix{
			BinWidth:    key.BinWidth,
			StartMicros: key.StartMicros,
			Rows:        snap.Rows(u),
		}
		w.matrices[u] = &matSlab[u]
	}
	return w, nil
}

// LoadOrMaterialize is the store's standard access chain: map the
// snapshot if a valid one exists (warm == true; generate is never
// called), otherwise cold-build it with MaterializeSharded. Callers
// own the failure policy — the enterprise and the fleet harness fall
// back to in-memory materialization, tracegen reports the error.
//
// warn, when non-nil, surfaces fallback events that were previously
// silent: stage "load" fires when a snapshot file exists but could
// not be mapped (stale engine/key, corrupt checksum, short file —
// anything but plain absence), stage "materialize" when the
// cold-build itself fails. Operators watching warn can tell a mystery
// cold rebuild from a routine first run.
// workers chooses the cold-build strategy: <= 1 builds in one
// streaming pass (MaterializeSharded), > 1 fans contiguous user
// ranges over that many in-process part builders and merges
// (MaterializeDistributed) — byte-identical output either way.
// weights optionally supplies per-user generation cost (one
// non-negative weight per user) for load-balanced worker ranges; nil
// (or a wrong-length slice) means equal user counts. Only the range
// boundaries depend on it — the sealed store is byte-identical for
// any weights.
// ctx bounds the cold build only (the warm map is nearly
// instantaneous): a coordinator deadline or Ctrl-C cancels in-flight
// part builds instead of leaking them.
func LoadOrMaterialize(ctx context.Context, dir string, key snapshot.Key, shardUsers, workers int, weights []float64, warn func(stage string, err error), generate func(u int, rows [][features.NumFeatures]float64)) (ws *Workspace, warm bool, err error) {
	ws, lerr := Load(dir, key)
	if lerr == nil {
		return ws, true, nil
	}
	if warn != nil && !errors.Is(lerr, fs.ErrNotExist) {
		warn("load", lerr)
	}
	if workers > 1 {
		ws, err = MaterializeDistributed(ctx, dir, key, shardUsers, workers, weights, generate)
	} else {
		ws, err = MaterializeSharded(ctx, dir, key, shardUsers, generate)
	}
	if err != nil && warn != nil {
		warn("materialize", err)
	}
	return ws, false, err
}

// LoadUserMatrix fetches ONE user's matrix from the store in
// O(record): snapshot.OpenUser validates the manifest and the
// containing integrity shard only, so at population scale the read
// touches a few hundred records' worth of bytes instead of
// checksumming and mapping the whole file the way Load must. The
// returned matrix owns its rows (no mapping to close). Callers fall
// back to a full Load for manifest-less (pre-manifest) stores.
func LoadUserMatrix(dir string, key snapshot.Key, u int) (*features.Matrix, error) {
	rec, err := snapshot.OpenUser(dir, key, u)
	if err != nil {
		return nil, err
	}
	return &features.Matrix{
		BinWidth:    key.BinWidth,
		StartMicros: key.StartMicros,
		Rows:        rec.Rows(),
	}, nil
}

// BuildShardRange materializes users [lo, hi) of key into a sealed
// part file under dir — one worker's slice of a distributed build.
// generate has the MaterializeSharded contract; it is only called for
// users inside the range, so a coordinator can hand disjoint ranges
// to separate processes (or hosts sharing a filesystem) and each pays
// only its slice of the generation cost. snapshot.MergeShards seals
// the parts into the canonical snapshot once all ranges exist.
// ctx aborts the build between (and inside) generation shards: on
// cancellation the part writer is aborted — its temp file removed,
// nothing sealed — and ctx's error returned.
func BuildShardRange(ctx context.Context, dir string, key snapshot.Key, lo, hi, shardUsers int, generate func(u int, rows [][features.NumFeatures]float64)) error {
	wr, err := snapshot.CreateShard(dir, key, lo, hi)
	if err != nil {
		return err
	}
	lay := wr.Layout()
	if err := writeRecordsRange(ctx, wr, lo, hi, shardUsers, func(u int, rec []float64) {
		generate(u, rowsView(rec, lay))
		fillDerived(rec, lay)
	}); err != nil {
		wr.Abort()
		return err
	}
	return wr.Finish()
}

// MaterializeDistributed is the in-process coordinator: it fans
// contiguous user ranges over a pool of part builders, merges the
// sealed parts into the canonical snapshot, and maps it. The result —
// snapshot and manifest both — is byte-identical to MaterializeSharded
// over the same generator (the cross-process determinism tests pin
// all build strategies to each other).
//
// weights optionally supplies per-user generation cost for the range
// cuts (snapshot.CutRanges): with a heavy-tail population, equal user
// counts leave the worker that drew the heavy users ~1.6× behind its
// siblings, while weight-balanced ranges even the wall-clock out. nil
// or wrong-length weights fall back to equal counts. The cut never
// changes the sealed bytes, only which worker produces which part.
// ctx cancellation aborts every in-flight part build; the first
// worker error likewise cancels its siblings, so a failed distributed
// build releases its goroutines promptly instead of letting the
// surviving workers generate records nobody will merge.
func MaterializeDistributed(ctx context.Context, dir string, key snapshot.Key, shardUsers, workers int, weights []float64, generate func(u int, rows [][features.NumFeatures]float64)) (*Workspace, error) {
	workers = par.Workers(workers, key.Users)
	if workers < 2 {
		return MaterializeSharded(ctx, dir, key, shardUsers, generate)
	}
	if len(weights) != key.Users {
		weights = make([]float64, key.Users) // zero total → equal counts
	}
	cuts := snapshot.CutRanges(weights, workers)
	bctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, len(cuts))
	for i, r := range cuts {
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			if errs[i] = BuildShardRange(bctx, dir, key, lo, hi, shardUsers, generate); errs[i] != nil {
				cancel()
			}
		}(i, r[0], r[1])
	}
	wg.Wait()
	// Prefer a real build failure over the context errors the
	// cancelled siblings report in its wake.
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return nil, err
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if _, err := snapshot.MergeShards(dir, key); err != nil {
		return nil, err
	}
	return Load(dir, key)
}

// MaterializeSharded materializes a population straight into a
// snapshot at dir and returns the loaded zero-copy workspace.
// generate must fill rows (one user's full capture, Layout().Bins()
// rows) deterministically and be safe for concurrent calls with
// distinct u — it is the same contract as NewGenerated's matrixOf,
// minus the Matrix wrapper. Users are processed in shards of
// shardUsers (<= 0 means DefaultShardUsers): the shard buffer is the
// only population-sized state ever resident, so peak heap stays
// O(shardUsers) while populations of 20k–100k users stream to disk.
// ctx cancellation aborts the build between generation shards (and
// skips remaining per-user fills inside one): the writer's temp file
// is removed and ctx's error returned — no partial snapshot can seal.
func MaterializeSharded(ctx context.Context, dir string, key snapshot.Key, shardUsers int, generate func(u int, rows [][features.NumFeatures]float64)) (*Workspace, error) {
	wr, err := snapshot.Create(dir, key)
	if err != nil {
		return nil, err
	}
	lay := wr.Layout()
	if err := writeRecords(ctx, wr, key.Users, shardUsers, func(u int, rec []float64) {
		generate(u, rowsView(rec, lay))
		fillDerived(rec, lay)
	}); err != nil {
		wr.Abort()
		return nil, err
	}
	if err := wr.Finish(); err != nil {
		return nil, err
	}
	return Load(dir, key)
}

// recordAppender is the writer seam writeRecordsRange streams
// through: the full-snapshot Writer and the part-file ShardWriter
// share it.
type recordAppender interface {
	Layout() snapshot.Layout
	AppendUsers([]float64) error
}

// writeRecords pulls user records through fill in bounded shards and
// appends them to the writer in user order. One shard buffer is
// reused for the whole run; fill runs on the shared worker pool.
func writeRecords(ctx context.Context, wr *snapshot.Writer, users, shardUsers int, fill func(u int, rec []float64)) error {
	return writeRecordsRange(ctx, wr, 0, users, shardUsers, fill)
}

// writeRecordsRange is writeRecords over the user range [lo, hi).
// Cancellation is honored at shard granularity for the append (a
// partially filled shard is never written) and at user granularity
// inside the parallel fill (remaining fills become no-ops), so a
// cancelled build stops within roughly one user's generation time.
func writeRecordsRange(ctx context.Context, wr recordAppender, lo, hi, shardUsers int, fill func(u int, rec []float64)) error {
	if shardUsers <= 0 {
		shardUsers = DefaultShardUsers
	}
	if shardUsers > hi-lo {
		shardUsers = hi - lo
	}
	rf := wr.Layout().RecordFloats()
	buf := make([]float64, shardUsers*rf)
	for base := lo; base < hi; base += shardUsers {
		n := min(shardUsers, hi-base)
		chunk := buf[:n*rf]
		par.ForEach(n, 0, func(i int) {
			if ctx.Err() != nil {
				return
			}
			fill(base+i, chunk[i*rf:(i+1)*rf:(i+1)*rf])
		})
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := wr.AppendUsers(chunk); err != nil {
			return err
		}
	}
	return nil
}

// rowsView reinterprets a record's rows region as matrix rows.
func rowsView(rec []float64, lay snapshot.Layout) [][features.NumFeatures]float64 {
	return unsafe.Slice((*[features.NumFeatures]float64)(unsafe.Pointer(&rec[0])), lay.Bins())
}

// fillDerived computes a record's sorted columns and day views from
// its rows region, in place. The arithmetic mirrors block.fillUser
// and Workspace.DaySorted exactly — same extraction order, same
// sort.Float64s — so a loaded snapshot is bit-identical to the
// in-memory build.
func fillDerived(rec []float64, lay snapshot.Layout) {
	rows := rowsView(rec, lay)
	bpw, bpd := lay.BinsPerWeek, lay.BinsPerDay
	for week := 0; week < lay.Weeks; week++ {
		base := week * bpw
		for f := 0; f < features.NumFeatures; f++ {
			off := lay.SortedOff(week, f)
			col := rec[off : off+bpw : off+bpw]
			for b := 0; b < bpw; b++ {
				col[b] = rows[base+b][f]
			}
			doff := lay.DayOff(week, f)
			day := rec[doff : doff+7*bpd : doff+7*bpd]
			copy(day, col[:7*bpd])
			for d := 0; d < 7; d++ {
				sort.Float64s(day[d*bpd : (d+1)*bpd])
			}
			sort.Float64s(col)
		}
	}
}
