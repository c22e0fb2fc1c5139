package analysis

import (
	"bytes"
	"context"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/features"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

func popAndKey(t *testing.T, users, weeks int, seed uint64, binWidth time.Duration) (*trace.Population, snapshot.Key) {
	t.Helper()
	pop := trace.MustPopulation(trace.Config{
		Users: users, Weeks: weeks, Seed: seed, BinWidth: binWidth,
	})
	key, err := snapshot.KeyFor(pop.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pop, key
}

// requireEqualWorkspaces asserts that two workspaces serve
// bit-identical views: matrices, raw and sorted columns,
// distributions, tail stats and day views.
func requireEqualWorkspaces(t *testing.T, got, want *Workspace) {
	t.Helper()
	if got.Users() != want.Users() || got.Weeks() != want.Weeks() ||
		got.BinsPerWeek() != want.BinsPerWeek() || got.BinWidth() != want.BinWidth() {
		t.Fatalf("geometry (%d,%d,%d,%v) != (%d,%d,%d,%v)",
			got.Users(), got.Weeks(), got.BinsPerWeek(), got.BinWidth(),
			want.Users(), want.Weeks(), want.BinsPerWeek(), want.BinWidth())
	}
	for u := 0; u < want.Users(); u++ {
		gm, wm := got.Matrices()[u], want.Matrices()[u]
		if gm.BinWidth != wm.BinWidth || gm.StartMicros != wm.StartMicros {
			t.Fatalf("user %d matrix metadata diverges", u)
		}
		if !reflect.DeepEqual(gm.Rows, wm.Rows) {
			t.Fatalf("user %d matrix rows diverge", u)
		}
	}
	for week := 0; week < want.Weeks(); week++ {
		for _, f := range features.All() {
			if !reflect.DeepEqual(got.Raw(f, week), want.Raw(f, week)) {
				t.Fatalf("%s week %d: raw columns diverge", f, week)
			}
			if !reflect.DeepEqual(got.Sorted(f, week), want.Sorted(f, week)) {
				t.Fatalf("%s week %d: sorted columns diverge", f, week)
			}
			if !reflect.DeepEqual(got.DaySorted(f, week), want.DaySorted(f, week)) {
				t.Fatalf("%s week %d: day views diverge", f, week)
			}
			gt, err := got.TailStats(f, week, 0.99)
			if err != nil {
				t.Fatal(err)
			}
			wt, err := want.TailStats(f, week, 0.99)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gt, wt) {
				t.Fatalf("%s week %d: tail stats diverge", f, week)
			}
			for u := 0; u < want.Users(); u++ {
				gd, wd := got.Dists(f, week)[u], want.Dists(f, week)[u]
				if gd.N() != wd.N() || gd.Min() != wd.Min() || gd.Max() != wd.Max() ||
					gd.MustQuantile(0.999) != wd.MustQuantile(0.999) {
					t.Fatalf("%s week %d user %d: distributions diverge", f, week, u)
				}
			}
		}
	}
}

// TestSnapshotRoundTripProperty is the Save→Load property test: for
// every seed (including the heavy-tail monsters 53 and 87 that stress
// episode levels and destination pools) and population shape, the
// loaded workspace is bit-identical to the in-memory one it was saved
// from.
func TestSnapshotRoundTripProperty(t *testing.T) {
	for _, tc := range []struct {
		seed     uint64
		users    int
		weeks    int
		binWidth time.Duration
	}{
		{1, 9, 2, 3 * time.Hour},
		{7, 5, 3, 6 * time.Hour},
		{53, 11, 2, 3 * time.Hour}, // heavy-tail seed
		{87, 8, 2, 6 * time.Hour},  // heavy-tail seed
		{424242, 3, 2, 90 * time.Minute},
	} {
		pop, key := popAndKey(t, tc.users, tc.weeks, tc.seed, tc.binWidth)
		dir := t.TempDir()
		mem := NewGenerated(tc.users, func(u int) *features.Matrix {
			return pop.Users[u].Series()
		})
		path, err := mem.Save(dir, key)
		if err != nil {
			t.Fatalf("seed %d: %v", tc.seed, err)
		}
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("seed %d: sealed file missing: %v", tc.seed, err)
		}
		loaded, err := Load(dir, key)
		if err != nil {
			t.Fatalf("seed %d: %v", tc.seed, err)
		}
		requireEqualWorkspaces(t, loaded, mem)
		if err := loaded.Close(); err != nil {
			t.Fatalf("seed %d: %v", tc.seed, err)
		}
		if err := loaded.Close(); err != nil { // idempotent
			t.Fatal(err)
		}
	}
}

// TestMaterializeShardedBitIdentical pins the sharded streaming path
// to the unsharded one at the byte level: the snapshot file written
// shard by shard must equal the file Save produces from a fully
// in-memory workspace, for shard sizes that divide the population
// unevenly. In full (non -short) mode the population is the
// 5000-user ROADMAP scale, demonstrating that sharding changes only
// peak memory, never a single byte of output.
func TestMaterializeShardedBitIdentical(t *testing.T) {
	users, weeks, binWidth := 5000, 1, 15*time.Minute
	shards := []int{512}
	if testing.Short() {
		users, weeks, binWidth = 37, 2, 3*time.Hour
		shards = []int{1, 5, 16, 37, 1000}
	}
	pop, key := popAndKey(t, users, weeks, 1, binWidth)
	memDir := t.TempDir()
	mem := NewGenerated(users, func(u int) *features.Matrix {
		return pop.Users[u].Series()
	})
	memPath, err := mem.Save(memDir, key)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(memPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, shard := range shards {
		dir := t.TempDir()
		ws, err := MaterializeSharded(context.Background(), dir, key, shard, func(u int, rows [][features.NumFeatures]float64) {
			pop.Users[u].FillSeries(rows)
		})
		if err != nil {
			t.Fatalf("shard %d: %v", shard, err)
		}
		if ws.Users() != users {
			t.Fatalf("shard %d: %d users", shard, ws.Users())
		}
		if err := ws.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(key.Path(dir))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("shard %d: sharded snapshot bytes differ from unsharded Save", shard)
		}
	}
}

// TestLoadRejectsCorruptOrStale exercises the fall-back contract at
// the analysis layer: truncation, payload bit-flips and a bumped
// engine version must all fail Load (callers then regenerate).
func TestLoadRejectsCorruptOrStale(t *testing.T) {
	pop, key := popAndKey(t, 4, 2, 5, 6*time.Hour)
	build := func(t *testing.T) (string, string) {
		dir := t.TempDir()
		ws := NewGenerated(4, func(u int) *features.Matrix { return pop.Users[u].Series() })
		path, err := ws.Save(dir, key)
		if err != nil {
			t.Fatal(err)
		}
		return dir, path
	}
	for name, mutate := range map[string]func(b []byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"payload bit flip": func(b []byte) []byte {
			b[len(b)-3] ^= 0x10
			return b
		},
		"stale engine version": func(b []byte) []byte {
			b[8+8]++ // engine field, low byte
			return b
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir, path := build(t)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, mutate(b), 0o644); err != nil {
				t.Fatal(err)
			}
			if ws, err := Load(dir, key); err == nil {
				ws.Close()
				t.Fatal("Load accepted a corrupt/stale snapshot")
			} else {
				t.Log(err)
			}
		})
	}
}

// TestSaveRejectsMismatchedKey guards the geometry validation: a key
// whose shape disagrees with the workspace must not produce a file.
func TestSaveRejectsMismatchedKey(t *testing.T) {
	pop, key := popAndKey(t, 4, 2, 5, 6*time.Hour)
	ws := NewGenerated(4, func(u int) *features.Matrix { return pop.Users[u].Series() })
	dir := t.TempDir()
	for name, bad := range map[string]snapshot.Key{
		"users":     {Seed: key.Seed, Users: 5, Weeks: key.Weeks, BinWidth: key.BinWidth, StartMicros: key.StartMicros, HeavyFraction: key.HeavyFraction, WeeklyTrend: key.WeeklyTrend},
		"weeks":     {Seed: key.Seed, Users: 4, Weeks: 3, BinWidth: key.BinWidth, StartMicros: key.StartMicros, HeavyFraction: key.HeavyFraction, WeeklyTrend: key.WeeklyTrend},
		"bin width": {Seed: key.Seed, Users: 4, Weeks: key.Weeks, BinWidth: 3 * time.Hour, StartMicros: key.StartMicros, HeavyFraction: key.HeavyFraction, WeeklyTrend: key.WeeklyTrend},
		"start":     {Seed: key.Seed, Users: 4, Weeks: key.Weeks, BinWidth: key.BinWidth, StartMicros: key.StartMicros + 60e6, HeavyFraction: key.HeavyFraction, WeeklyTrend: key.WeeklyTrend},
	} {
		if _, err := ws.Save(dir, bad); err == nil {
			t.Fatalf("%s: Save accepted a mismatched key", name)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("rejected Saves left files behind: %v", ents)
	}
}
