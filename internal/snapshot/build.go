package snapshot

// The part builder: the one producer of record bytes. Every sealed
// store is assembled by MergeShards from parts sealed here — a
// single-process build is one part covering the whole population, a
// distributed build is many — so the derived sections are computed by
// exactly one function whatever the build strategy.

import (
	"context"
	"unsafe"

	"repro/internal/features"
	"repro/internal/par"
	"repro/internal/stats"
)

// DefaultShardUsers is the shard granularity used when a caller does
// not choose one: large enough to keep every core busy inside a
// shard, small enough that a shard buffer stays in the tens of
// megabytes at paper-scale geometries.
const DefaultShardUsers = 512

// BuildPart materializes users [lo, hi) of key into a sealed part file
// under dir. fill must write one user's full capture (Layout().Bins()
// rows) deterministically and be safe for concurrent calls with
// distinct u; it is only called for users inside the range, so
// disjoint ranges can be built by separate goroutines, processes or
// hosts, each paying only its slice of the generation cost. Users are
// filled in shards of shardUsers (<= 0 means DefaultShardUsers): the
// shard buffer is the only range-sized state ever resident, so peak
// heap stays O(shardUsers) however wide the range.
//
// ctx aborts the build between (and inside) fill shards: on
// cancellation the part writer is aborted — its temp file removed,
// nothing sealed — and ctx's error returned.
func BuildPart(ctx context.Context, dir string, key Key, lo, hi, shardUsers int, fill func(u int, rows [][features.NumFeatures]float64)) error {
	wr, err := CreateShard(dir, key, lo, hi)
	if err != nil {
		return err
	}
	if err := writeRecordsRange(ctx, wr, lo, hi, shardUsers, func(u int, rec []float64) {
		fill(u, rowsView(rec, wr.lay))
		fillDerived(rec, wr.lay)
	}); err != nil {
		wr.Abort()
		return err
	}
	return wr.Finish()
}

// writeRecordsRange pulls the records of users [lo, hi) through fill in
// bounded shards and appends them to the part in user order. One
// shard buffer is reused for the whole run; fill runs on the shared
// worker pool. Cancellation is honored at shard granularity for the
// append (a partially filled shard is never written) and at user
// granularity inside the parallel fill (remaining fills become
// no-ops), so a cancelled build stops within roughly one user's
// generation time.
func writeRecordsRange(ctx context.Context, wr *ShardWriter, lo, hi, shardUsers int, fill func(u int, rec []float64)) error {
	if shardUsers <= 0 {
		shardUsers = DefaultShardUsers
	}
	if shardUsers > hi-lo {
		shardUsers = hi - lo
	}
	rf := wr.lay.RecordFloats()
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
func rowsView(rec []float64, lay Layout) [][features.NumFeatures]float64 {
	return unsafe.Slice((*[features.NumFeatures]float64)(unsafe.Pointer(&rec[0])), lay.Bins())
}

// fillDerived computes a record's sorted columns and day views from
// its rows region, in place. The arithmetic mirrors analysis's
// block.fillUser and Workspace.DaySorted exactly — same extraction
// order, same stats.SortCounts — so a loaded snapshot is bit-identical
// to the in-memory build.
func fillDerived(rec []float64, lay Layout) {
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
				stats.SortCounts(day[d*bpd : (d+1)*bpd])
			}
			stats.SortCounts(col)
		}
	}
}
