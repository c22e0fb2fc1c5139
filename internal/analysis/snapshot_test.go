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

// sealStore seals key's store in a fresh directory with a one-range
// local build over gen and returns the directory.
func sealStore(t *testing.T, key snapshot.Key, gen func(u int, rows [][features.NumFeatures]float64)) string {
	t.Helper()
	dir := t.TempDir()
	ws, err := MaterializeSharded(context.Background(), dir, key, 0, gen)
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
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

// TestSnapshotRoundTripProperty is the seal→Load property test: for
// every seed (including the heavy-tail monsters 53 and 87 that stress
// episode levels and destination pools) and population shape, the
// workspace loaded from a sealed store is bit-identical to the heap
// workspace Generate fills from the same generator.
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
		gen := func(u int, rows [][features.NumFeatures]float64) {
			pop.Users[u].FillSeries(rows)
		}
		dir := sealStore(t, key, gen)
		mem, err := Generate(key, gen)
		if err != nil {
			t.Fatalf("seed %d: %v", tc.seed, err)
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
// shard by shard must equal the file written from one shard holding
// the whole population, for shard sizes that divide the population
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
	mem, err := MaterializeSharded(context.Background(), memDir, key, users, func(u int, rows [][features.NumFeatures]float64) {
		pop.Users[u].FillSeries(rows)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(key.Path(memDir))
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
			t.Fatalf("shard %d: sharded snapshot bytes differ from the unsharded build", shard)
		}
	}
}

// TestLoadRejectsCorruptOrStale exercises the fall-back contract at
// the analysis layer: truncation, payload bit-flips and a bumped
// engine version must all fail Load (callers then regenerate).
func TestLoadRejectsCorruptOrStale(t *testing.T) {
	pop, key := popAndKey(t, 4, 2, 5, 6*time.Hour)
	build := func(t *testing.T) (string, string) {
		dir := sealStore(t, key, func(u int, rows [][features.NumFeatures]float64) {
			pop.Users[u].FillSeries(rows)
		})
		return dir, key.Path(dir)
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
