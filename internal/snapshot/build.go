package snapshot

// The record producer. Every record, sealed or not, is written by
// recordFill: a sealed store is assembled by MergeShards from parts
// BuildPart seals (a single-process build is one part covering the
// whole population, a distributed build is many), and Fill writes the
// same records into a heap slab. The derived sections are computed by
// exactly one function whatever the backing or build strategy.

import (
	"context"
	"fmt"
	"math"
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
	if err := writeRecordsRange(ctx, wr, lo, hi, shardUsers, recordFill(wr.lay, fill)); err != nil {
		wr.Abort()
		return err
	}
	return wr.Finish()
}

// Fill builds key's whole store in a heap slab instead of a file:
// every record is written by the same recordFill a part build runs,
// on the shared worker pool, and then scanned by the part gate's
// checkSorted, so its views carry the contract a sealed store's do.
// fill has BuildPart's contract. Nothing is serialized, so the
// format's byte-order check does not apply; a key whose geometry is
// invalid returns an error. The returned Snapshot serves the same
// views as an opened one; DropUserRange and Close are no-ops on it,
// and the slab lives as long as any view of it.
func Fill(key Key, fill func(u int, rows [][features.NumFeatures]float64)) (*Snapshot, error) {
	if err := key.checkGeometry(); err != nil {
		return nil, err
	}
	lay := key.Layout()
	rf := lay.RecordFloats()
	payload := make([]float64, lay.PayloadFloats())
	fillRec := recordFill(lay, fill)
	err := par.ForEachErr(lay.Users, 0, func(u int) error {
		rec := payload[u*rf : (u+1)*rf : (u+1)*rf]
		fillRec(u, rec)
		if err := lay.checkSorted(rec); err != nil {
			return fmt.Errorf("snapshot: user %d: %w", u, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Snapshot{key: key, lay: lay, payload: payload}, nil
}

// recordFill returns the one function that writes a user's record:
// fill writes the rows region, fillDerived the sections derived from
// it.
func recordFill(lay Layout, fill func(u int, rows [][features.NumFeatures]float64)) func(u int, rec []float64) {
	return func(u int, rec []float64) {
		fill(u, rowsView(rec, lay))
		fillDerived(rec, lay)
	}
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
// its rows region, in place. It is the only code that derives them:
// a mapped store and a heap-filled one serve the same bytes.
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

// checkSorted proves a record's derived sections well formed: every
// sorted week column and every day of every day view sorted ascending
// and NaN-free, the contract stats.Empirical adopts them under. The
// sections are contiguous and of equal width — Weeks × NumFeatures
// columns of BinsPerWeek, then Weeks × NumFeatures × 7 days of
// BinsPerDay — so the scan steps through them without per-column
// offsets. The part gate (spliceOnePart) runs it on every record, so
// a writer that fillDerived did not drive cannot seal a store its
// readers would mis-adopt.
func (l Layout) checkSorted(rec []float64) error {
	sorted := rec[l.SortedOff(0, 0):l.DayOff(0, 0)]
	for c := 0; c*l.BinsPerWeek < len(sorted); c++ {
		col := sorted[c*l.BinsPerWeek : (c+1)*l.BinsPerWeek]
		if i := stats.UnsortedAt(col); i >= 0 {
			week, f := c/features.NumFeatures, features.Feature(c%features.NumFeatures)
			return fmt.Errorf("%s week %d sorted column: sample %d %s", f, week, i, unsortedWhy(col, i))
		}
	}
	days := rec[l.DayOff(0, 0):]
	for d := 0; d*l.BinsPerDay < len(days); d++ {
		col := days[d*l.BinsPerDay : (d+1)*l.BinsPerDay]
		if i := stats.UnsortedAt(col); i >= 0 {
			c := d / 7
			week, f := c/features.NumFeatures, features.Feature(c%features.NumFeatures)
			return fmt.Errorf("%s week %d day %d view: sample %d %s", f, week, d%7, i, unsortedWhy(col, i))
		}
	}
	return nil
}

// unsortedWhy names what is wrong with col at UnsortedAt's index i.
func unsortedWhy(col []float64, i int) string {
	if math.IsNaN(col[i]) {
		return "is NaN"
	}
	return fmt.Sprintf("%g is below its predecessor %g", col[i], col[i-1])
}
