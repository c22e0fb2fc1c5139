package repro

// End-to-end guard for the snapshot-backed enterprise: the same
// Options must yield bit-identical experiment results whether the
// workspace was materialized in memory, cold-built into the snapshot
// store (sharded), or warm-mapped back from it — and a directory that
// cannot hold snapshots must degrade to plain materialization, never
// to an error.

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// runTriple renders the three golden-file experiments for one
// enterprise.
func runTriple(t *testing.T, e *Enterprise) (any, any, any) {
	t.Helper()
	cfg := DefaultExperimentConfig()
	f1, err := Fig1(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f3a, err := Fig3a(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t3, err := Table3(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f1, f3a, t3
}

func TestEnterpriseSnapshotColdWarmMatchesInMemory(t *testing.T) {
	// The "plain" baselines below must really materialize in memory:
	// with REPRO_SNAPSHOT_DIR set (the snapshot-smoke job), an empty
	// Options.SnapshotDir would silently ride the shared store and
	// the comparison would degrade to snapshot-vs-snapshot.
	t.Setenv("REPRO_SNAPSHOT_DIR", "")
	dir := t.TempDir()
	opts := Options{Users: 14, Weeks: 2, Seed: 1}

	plain, err := NewEnterprise(opts)
	if err != nil {
		t.Fatal(err)
	}
	wantF1, wantF3a, wantT3 := runTriple(t, plain)

	snapOpts := opts
	snapOpts.SnapshotDir = dir
	snapOpts.SnapshotShard = 5 // force several shards on the cold build
	cold, err := NewEnterprise(snapOpts)
	if err != nil {
		t.Fatal(err)
	}
	cold.Materialize()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A sealed store is exactly the snapshot plus its manifest
	// sidecar (the record CRC table every reader checks) — no temp
	// files, no leftover parts.
	if len(ents) != 2 || filepath.Ext(ents[0].Name()) != ".snap" ||
		ents[1].Name() != ents[0].Name()+".manifest" {
		t.Fatalf("cold materialize left %v in the store, want one sealed .snap plus its .manifest", ents)
	}
	gotF1, gotF3a, gotT3 := runTriple(t, cold)
	if !reflect.DeepEqual(gotF1, wantF1) || !reflect.DeepEqual(gotF3a, wantF3a) || !reflect.DeepEqual(gotT3, wantT3) {
		t.Fatal("cold snapshot-backed results diverge from in-memory results")
	}

	// Warm: a fresh enterprise with the same options must map the
	// sealed file (mtime unchanged → no rewrite) and agree again.
	before, err := os.Stat(filepath.Join(dir, ents[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := NewEnterprise(snapOpts)
	if err != nil {
		t.Fatal(err)
	}
	gotF1, gotF3a, gotT3 = runTriple(t, warm)
	if !reflect.DeepEqual(gotF1, wantF1) || !reflect.DeepEqual(gotF3a, wantF3a) || !reflect.DeepEqual(gotT3, wantT3) {
		t.Fatal("warm snapshot-backed results diverge from in-memory results")
	}
	after, err := os.Stat(filepath.Join(dir, ents[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(before.ModTime()) || after.Size() != before.Size() {
		t.Fatal("warm run rewrote the snapshot instead of mapping it")
	}
}

func TestEnterpriseSnapshotCorruptFallsBack(t *testing.T) {
	t.Setenv("REPRO_SNAPSHOT_DIR", "") // keep the baseline in-memory
	dir := t.TempDir()
	opts := Options{Users: 6, Weeks: 2, Seed: 3, SnapshotDir: dir}
	cold, err := NewEnterprise(opts)
	if err != nil {
		t.Fatal(err)
	}
	cold.Materialize()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, ents[0].Name())
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	plain, err := NewEnterprise(Options{Users: 6, Weeks: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	wantF1, _, _ := runTriple(t, plain)
	damaged, err := NewEnterprise(opts)
	if err != nil {
		t.Fatal(err)
	}
	gotF1, _, _ := runTriple(t, damaged)
	if !reflect.DeepEqual(gotF1, wantF1) {
		t.Fatal("corrupt snapshot was not rejected in favor of regeneration")
	}
}

func TestEnterpriseSnapshotUnwritableDirFallsBack(t *testing.T) {
	t.Setenv("REPRO_SNAPSHOT_DIR", "") // keep the baseline in-memory
	plain, err := NewEnterprise(Options{Users: 5, Weeks: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantF1, _, _ := runTriple(t, plain)
	// A path under a regular file can neither be created nor written.
	bad := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(bad, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := NewEnterprise(Options{Users: 5, Weeks: 2, Seed: 2, SnapshotDir: filepath.Join(bad, "sub")})
	if err != nil {
		t.Fatal(err)
	}
	gotF1, _, _ := runTriple(t, e)
	if !reflect.DeepEqual(gotF1, wantF1) {
		t.Fatal("unwritable snapshot dir did not fall back to in-memory materialization")
	}
}
