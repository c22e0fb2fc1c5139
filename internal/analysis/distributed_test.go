package analysis

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/buildctl"
	"repro/internal/features"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// helperConfig mirrors the population TestCrossProcessShardBuild uses;
// the re-exec'd worker rebuilds it from env so both processes derive
// the identical key and generator.
func helperConfig(users int) trace.Config {
	return trace.Config{Users: users, Weeks: 2, Seed: 7, BinWidth: 3 * time.Hour}
}

// TestShardWorkerHelper is not a test: it is the worker body
// TestCrossProcessShardBuild re-execs as a genuinely separate process.
// Without the env contract it skips immediately.
func TestShardWorkerHelper(t *testing.T) {
	dir := os.Getenv("REPRO_SHARD_HELPER_DIR")
	if dir == "" {
		t.Skip("helper mode: only runs re-exec'd by TestCrossProcessShardBuild")
	}
	users, err := strconv.Atoi(os.Getenv("REPRO_SHARD_HELPER_USERS"))
	if err != nil {
		t.Fatal(err)
	}
	var lo, hi int
	if n, err := fmt.Sscanf(os.Getenv("REPRO_SHARD_HELPER_RANGE"), "%d:%d", &lo, &hi); n != 2 || err != nil {
		t.Fatalf("bad REPRO_SHARD_HELPER_RANGE %q: %v", os.Getenv("REPRO_SHARD_HELPER_RANGE"), err)
	}
	pop := trace.MustPopulation(helperConfig(users))
	key, err := snapshot.KeyFor(pop.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := snapshot.BuildPart(context.Background(), dir, key, lo, hi, 0, func(u int, rows [][features.NumFeatures]float64) {
		pop.Users[u].FillSeries(rows)
	}); err != nil {
		t.Fatal(err)
	}
}

// TestCrossProcessShardBuild is the three-way determinism pin: the
// same key built via (a) a one-range local build, (b) in-process
// distributed workers, and (c) two separate worker processes over
// disjoint shard ranges plus a merge, must produce byte-identical
// snapshots AND manifests, and the merged store must serve the views
// of the heap workspace Generate fills.
func TestCrossProcessShardBuild(t *testing.T) {
	const users = 40
	pop := trace.MustPopulation(helperConfig(users))
	key, err := snapshot.KeyFor(pop.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := func(u int, rows [][features.NumFeatures]float64) {
		pop.Users[u].FillSeries(rows)
	}

	// (a) a one-range local build.
	saveDir := sealStore(t, key, gen)

	// (b) in-process distributed build: three part writers + merge.
	distDir := t.TempDir()
	ws, _, err := LoadOrMaterialize(context.Background(), distDir, key, 0, 3, pop.CostWeights(), nil, gen)
	if err != nil {
		t.Fatal(err)
	}
	ws.Close()

	// (c) two genuinely separate worker processes (the test binary
	// re-exec'd onto the helper), then a merge in this process — the
	// flow of builders on hosts sharing the store directory.
	procDir := t.TempDir()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, rng := range []string{"0:17", "17:40"} {
		cmd := exec.Command(exe, "-test.run", "^TestShardWorkerHelper$", "-test.count=1")
		cmd.Env = append(os.Environ(),
			"REPRO_SHARD_HELPER_DIR="+procDir,
			"REPRO_SHARD_HELPER_USERS="+strconv.Itoa(users),
			"REPRO_SHARD_HELPER_RANGE="+rng,
		)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("worker process %s failed: %v\n%s", rng, err, out)
		}
	}
	if n, err := snapshot.MergeShards(procDir, key); err != nil || n != 2 {
		t.Fatalf("MergeShards: n=%d err=%v", n, err)
	}

	want, err := os.ReadFile(key.Path(saveDir))
	if err != nil {
		t.Fatal(err)
	}
	wantMan, err := os.ReadFile(key.ManifestPath(saveDir))
	if err != nil {
		t.Fatal(err)
	}
	for name, dir := range map[string]string{"in-process distributed": distDir, "cross-process": procDir} {
		got, err := os.ReadFile(key.Path(dir))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s snapshot bytes differ from the one-range build", name)
		}
		gotMan, err := os.ReadFile(key.ManifestPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotMan, wantMan) {
			t.Fatalf("%s manifest bytes differ from the one-range build", name)
		}
	}

	// The merged store round-trips through the workspace layer.
	loaded, err := Load(procDir, key)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	heap, err := Generate(key, gen)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualWorkspaces(t, loaded, heap)
}

// TestLoadOrMaterializeWorkers pins every cold path to the
// single-pass build byte for byte — snapshot and manifest — and the
// warm path to a plain map: a multi-worker LoadOrMaterialize and a
// buildctl.Build over 8 ranges seal the same bytes.
func TestLoadOrMaterializeWorkers(t *testing.T) {
	pop, key := popAndKey(t, 23, 2, 11, 6*time.Hour)
	gen := func(u int, rows [][features.NumFeatures]float64) {
		pop.Users[u].FillSeries(rows)
	}
	singleDir, distDir, ctlDir := t.TempDir(), t.TempDir(), t.TempDir()
	ws, _, err := LoadOrMaterialize(context.Background(), singleDir, key, 0, 0, nil, nil, gen)
	if err != nil {
		t.Fatal(err)
	}
	ws.Close()
	ws, warm, err := LoadOrMaterialize(context.Background(), distDir, key, 5, 4, pop.CostWeights(), nil, gen)
	if err != nil {
		t.Fatal(err)
	}
	ws.Close()
	if warm {
		t.Fatal("cold build reported warm")
	}
	if _, err := buildctl.Build(context.Background(), buildctl.Options{
		Dir: ctlDir, Key: key,
		Worker:   &buildctl.LocalWorker{Dir: ctlDir, Key: key, Generate: gen},
		Parallel: 2, Ranges: 8,
	}); err != nil {
		t.Fatal(err)
	}
	read := func(path string) []byte {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want, wantMan := read(key.Path(singleDir)), read(key.ManifestPath(singleDir))
	for name, dir := range map[string]string{"workers>1": distDir, "buildctl.Build 8 ranges": ctlDir} {
		if !bytes.Equal(read(key.Path(dir)), want) {
			t.Fatalf("%s cold build bytes differ from single-pass build", name)
		}
		if !bytes.Equal(read(key.ManifestPath(dir)), wantMan) {
			t.Fatalf("%s manifest bytes differ from single-pass build", name)
		}
	}
	if ws, warm, err = LoadOrMaterialize(context.Background(), distDir, key, 5, 4, nil, nil, gen); err != nil || !warm {
		t.Fatalf("second call: warm=%v err=%v", warm, err)
	}
	ws.Close()
}

// TestLeftoverPartDoesNotWedgeColdBuild seals a part an abandoned
// build left behind, [0, 7), then cold-builds the same key with three
// workers, whose fresh cut does not line up with it. The build must
// adopt or discard the leftover rather than fail the merge on a
// tiling that no longer fits: it seals the single-pass bytes and
// leaves no part files behind.
func TestLeftoverPartDoesNotWedgeColdBuild(t *testing.T) {
	pop, key := popAndKey(t, 30, 2, 11, 6*time.Hour)
	gen := func(u int, rows [][features.NumFeatures]float64) {
		pop.Users[u].FillSeries(rows)
	}
	singleDir, dir := t.TempDir(), t.TempDir()
	ws, err := MaterializeSharded(context.Background(), singleDir, key, 0, gen)
	if err != nil {
		t.Fatal(err)
	}
	ws.Close()
	if err := snapshot.BuildPart(context.Background(), dir, key, 0, 7, 0, gen); err != nil {
		t.Fatal(err)
	}
	ws, warm, err := LoadOrMaterialize(context.Background(), dir, key, 0, 3, nil, nil, gen)
	if err != nil {
		t.Fatalf("cold build over a leftover part: %v", err)
	}
	ws.Close()
	if warm {
		t.Fatal("cold build reported warm")
	}
	for _, path := range []string{key.Path(dir), key.ManifestPath(dir)} {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(singleDir, filepath.Base(path)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s differs from the single-pass build", filepath.Base(path))
		}
	}
	parts, err := snapshot.ListParts(dir, key)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 0 {
		t.Fatalf("build left %d part files behind: %+v", len(parts), parts)
	}
}

// TestMaterializeCancelled pins the ctx contract: cancelling a
// materialization mid-build aborts it with the context's error, seals
// nothing (no .snap, no part), and leaves no temp files behind — a
// coordinator deadline or Ctrl-C cannot leak a poisoned store.
func TestMaterializeCancelled(t *testing.T) {
	pop, key := popAndKey(t, 30, 2, 11, 6*time.Hour)
	var built atomic.Int32
	newGen := func(ctx context.Context, cancel context.CancelFunc) func(u int, rows [][features.NumFeatures]float64) {
		return func(u int, rows [][features.NumFeatures]float64) {
			if built.Add(1) == 3 {
				cancel() // die mid-population, from inside generation
			}
			pop.Users[u].FillSeries(rows)
		}
	}
	assertNothingSealed := func(t *testing.T, dir string) {
		t.Helper()
		if _, err := os.Stat(key.Path(dir)); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("cancelled build sealed a snapshot: %v", err)
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			t.Fatalf("cancelled build left %s behind", e.Name())
		}
	}

	t.Run("sharded", func(t *testing.T) {
		dir := t.TempDir()
		built.Store(0)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// Shard granularity 1 so the per-shard ctx check fires right
		// after the cancelling user, deterministically.
		_, err := MaterializeSharded(ctx, dir, key, 1, newGen(ctx, cancel))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		assertNothingSealed(t, dir)
	})
	t.Run("distributed", func(t *testing.T) {
		dir := t.TempDir()
		built.Store(0)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		_, _, err := LoadOrMaterialize(ctx, dir, key, 1, 3, nil, nil, newGen(ctx, cancel))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		assertNothingSealed(t, dir)
	})
	t.Run("shard-range", func(t *testing.T) {
		dir := t.TempDir()
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // already dead before the first record
		err := snapshot.BuildPart(ctx, dir, key, 0, 10, 1, newGen(ctx, cancel))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		assertNothingSealed(t, dir)
	})
}

// TestCrashBetweenMergeRenames covers a merge cut off between its
// two renames: the store is in place, its manifest is not, and the
// parts it was merged from are still on disk (MergeShards removes
// them only after writing the manifest). Both readers refuse the
// store as unusable, not absent; LoadOrMaterialize warns at stage
// "load" and never serves it; and buildctl.Build re-merges the parts,
// regenerating no user, into a store and manifest byte-identical to
// the original.
func TestCrashBetweenMergeRenames(t *testing.T) {
	pop, key := popAndKey(t, 9, 2, 5, 6*time.Hour)
	var generated atomic.Int64
	gen := func(u int, rows [][features.NumFeatures]float64) {
		generated.Add(1)
		pop.Users[u].FillSeries(rows)
	}
	read := func(path string) []byte {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	dir := t.TempDir()
	parts := map[string][]byte{}
	for _, r := range [][2]int{{0, 4}, {4, 9}} {
		if err := snapshot.BuildPart(context.Background(), dir, key, r[0], r[1], 0, gen); err != nil {
			t.Fatal(err)
		}
		path := key.PartPath(dir, r[0], r[1])
		parts[path] = read(path)
	}
	if _, err := snapshot.MergeShards(dir, key); err != nil {
		t.Fatal(err)
	}
	wantStore, wantMan := read(key.Path(dir)), read(key.ManifestPath(dir))
	crash := func() {
		t.Helper()
		if err := os.Remove(key.ManifestPath(dir)); err != nil {
			t.Fatal(err)
		}
		for path, b := range parts {
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkRemerged := func(what string) {
		t.Helper()
		if !bytes.Equal(read(key.Path(dir)), wantStore) || !bytes.Equal(read(key.ManifestPath(dir)), wantMan) {
			t.Fatalf("%s: re-merged store or manifest differs from the original", what)
		}
		if n := generated.Load(); n != 0 {
			t.Fatalf("%s: regenerated %d users instead of re-merging the parts", what, n)
		}
	}

	crash()
	_, oerr := snapshot.Open(dir, key)
	_, rerr := snapshot.ReadUser(dir, key, 1)
	for name, err := range map[string]error{"Open": oerr, "ReadUser": rerr} {
		if err == nil || errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("%s on a store without its manifest: err = %v, want an unusable-store error", name, err)
		}
	}

	generated.Store(0)
	var warned []string
	ws, warm, err := LoadOrMaterialize(context.Background(), dir, key, 0, 2, nil, func(stage string, err error) {
		warned = append(warned, stage)
		t.Logf("warn %s: %v", stage, err)
	}, gen)
	if err != nil {
		t.Fatal(err)
	}
	ws.Close()
	if warm {
		t.Fatal("LoadOrMaterialize served the store without its manifest as warm")
	}
	if !reflect.DeepEqual(warned, []string{"load"}) {
		t.Fatalf("warned at stages %v, want [load]", warned)
	}
	checkRemerged("LoadOrMaterialize")

	crash()
	st, err := buildctl.Build(context.Background(), buildctl.Options{
		Dir: dir, Key: key,
		Worker: &buildctl.LocalWorker{Dir: dir, Key: key, Generate: gen},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Warm || st.ResumedParts != len(parts) || st.MergedParts != len(parts) {
		t.Fatalf("build over the cut-off merge: %+v, want the %d parts resumed and merged", st, len(parts))
	}
	checkRemerged("buildctl.Build")
}
