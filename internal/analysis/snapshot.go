package analysis

// The store integration: a materialized Workspace is a pure function
// of its generation key, so its records are computed once by
// internal/snapshot's record producer and served as zero-copy views.
//
//   - Load maps a sealed store and builds a workspace whose matrices,
//     sorted columns, distributions and day views alias the mapping.
//     Only the raw time-ordered columns are copied, per block and only
//     when Raw asks: rows interleave the six features, so a raw column
//     is the one view a record cannot serve as a contiguous run.
//   - Generate fills the same records into a heap slab
//     (snapshot.Fill) and builds the same workspace over it; nothing
//     touches the disk.
//   - MaterializeSharded streams a population through bounded
//     user-shards straight into the store — generate, derive, append,
//     release — so peak heap is O(shard × record), not
//     O(users × record), then Loads the result. The returned
//     workspace is bit-identical to Generate over the same generator.
//
// Every cold path — MaterializeSharded, LoadOrMaterialize — is one
// call to materialize: a buildctl.Build over in-process
// snapshot.BuildPart workers, sealed by the coordinator's verified
// splice merge, then Load. They differ only in the worker count.

import (
	"context"
	"errors"
	"io/fs"
	"sync"

	"repro/internal/buildctl"
	"repro/internal/features"
	"repro/internal/snapshot"
)

// Load maps the snapshot addressed by key under dir into a zero-copy
// workspace. Everything the workspace serves that the file holds —
// matrices, sorted columns, the distributions adopting them, day
// views — aliases the read-only mapping; mutating any of it faults.
// Load itself only maps and checksums the file (the warm path is two
// orders of magnitude cheaper than regeneration); per-(feature, week)
// views are wired on first use by the workspace's existing lazy block
// machinery. A missing, stale (engine or key mismatch) or corrupt
// (size, checksum, or a missing or damaged manifest) store returns an
// error and the caller regenerates. Close the workspace to release the mapping once
// nothing reads from it anymore.
func Load(dir string, key snapshot.Key) (*Workspace, error) {
	snap, err := snapshot.Open(dir, key)
	if err != nil {
		return nil, err
	}
	return fromSnapshot(snap, key), nil
}

// Generate builds key's workspace in memory: every user's record is
// filled into one heap slab by snapshot.Fill — fill writes the rows,
// the record producer derives the rest — and the workspace serves it
// exactly as Load serves a mapped store. fill has MaterializeSharded's
// contract. A key whose geometry is invalid returns an error.
func Generate(key snapshot.Key, fill func(u int, rows [][features.NumFeatures]float64)) (*Workspace, error) {
	snap, err := snapshot.Fill(key, fill)
	if err != nil {
		return nil, err
	}
	return fromSnapshot(snap, key), nil
}

// fromSnapshot builds the workspace over a store: its matrices are
// row views of the records, and every columnar block is wired from
// them on first use.
func fromSnapshot(snap *snapshot.Snapshot, key snapshot.Key) *Workspace {
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
	return w
}

// LoadOrMaterialize is the store's standard access chain: map the
// snapshot if a valid one exists (warm == true; generate is never
// called), otherwise cold-build it and map the result. Callers
// own the failure policy — the enterprise falls back to Generate,
// tracegen reports the error.
//
// warn, when non-nil, surfaces fallback events that were previously
// silent: stage "load" fires when a snapshot file exists but could
// not be mapped (stale engine/key, corrupt checksum, short file, a
// missing manifest — anything but plain absence), stage "materialize" when the
// cold-build itself fails. Operators watching warn can tell a mystery
// cold rebuild from a routine first run.
// workers is the number of in-process part builders the cold build
// runs (<= 1: one range, built in one streaming pass); the sealed
// store is byte-identical for every worker count. weights optionally
// supplies per-user generation cost (one non-negative weight per
// user) for load-balanced worker ranges; nil (or a wrong-length
// slice) means equal user counts. Only the range boundaries depend on
// it — the sealed store is byte-identical for any weights.
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
	ws, err = materialize(ctx, dir, key, shardUsers, workers, weights, generate)
	if err != nil && warn != nil {
		warn("materialize", err)
	}
	return ws, false, err
}

// BuildShardRange seals users [lo, hi) of key as a part file under
// dir; it is snapshot.BuildPart, kept under its former name for
// external callers.
func BuildShardRange(ctx context.Context, dir string, key snapshot.Key, lo, hi, shardUsers int, generate func(u int, rows [][features.NumFeatures]float64)) error {
	return snapshot.BuildPart(ctx, dir, key, lo, hi, shardUsers, generate)
}

// MaterializeSharded materializes a population straight into a
// snapshot at dir and returns the loaded zero-copy workspace.
// generate must fill rows (one user's full capture, Layout().Bins()
// rows) deterministically and be safe for concurrent calls with
// distinct u. Users are processed in shards of
// shardUsers (<= 0 means snapshot.DefaultShardUsers): the shard
// buffer is the only population-sized state ever resident, so peak
// heap stays O(shardUsers) while populations of 20k–100k users
// stream to disk. ctx cancellation aborts the build between
// generation shards (and skips remaining per-user fills inside one):
// the part's temp file is removed and ctx's error returned — no
// partial snapshot can seal.
func MaterializeSharded(ctx context.Context, dir string, key snapshot.Key, shardUsers int, generate func(u int, rows [][features.NumFeatures]float64)) (*Workspace, error) {
	return materialize(ctx, dir, key, shardUsers, 1, nil, generate)
}

// materialize is the one cold path: the build coordinator seals key
// under dir from max(workers, 1) weight-balanced ranges, each built
// in-process by snapshot.BuildPart over fill and verified before the
// splice merge, and the sealed store is then mapped. Parts a previous
// build left behind are adopted if they verify and removed if they
// overlap, so an abandoned build never wedges the next one.
func materialize(ctx context.Context, dir string, key snapshot.Key, shardUsers, workers int, weights []float64, fill func(u int, rows [][features.NumFeatures]float64)) (*Workspace, error) {
	if _, err := buildctl.Build(ctx, buildctl.Options{
		Dir: dir, Key: key,
		Worker:   &buildctl.LocalWorker{Dir: dir, Key: key, ShardUsers: shardUsers, Generate: fill},
		Parallel: max(workers, 1), Weights: weights,
	}); err != nil {
		return nil, err
	}
	return Load(dir, key)
}
