package snapshot

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestManifestSealedWithSnapshot(t *testing.T) {
	dir := t.TempDir()
	key := testKey(5, 2, 6*time.Hour)
	payload := fillTestRecords(t, dir, key)
	if _, err := os.Stat(key.ManifestPath(dir)); err != nil {
		t.Fatalf("no manifest sidecar after Finish: %v", err)
	}
	lay := key.Layout()
	rf := lay.RecordFloats()
	for u := 0; u < key.Users; u++ {
		rec, err := OpenUser(dir, key, u)
		if err != nil {
			t.Fatalf("OpenUser(%d): %v", u, err)
		}
		if rec.lay != lay {
			t.Fatalf("OpenUser(%d) layout %+v, want %+v", u, rec.lay, lay)
		}
		for i, v := range rec.rec {
			if v != payload[u*rf+i] {
				t.Fatalf("user %d float %d: %g != written %g", u, i, v, payload[u*rf+i])
			}
		}
		// The accessors must agree with the mapped store's views.
		rows := rec.Rows()
		if len(rows) != lay.Bins() || rows[2][3] != rec.rec[2*6+3] {
			t.Fatalf("user %d rows view mismatch", u)
		}
	}
}

func TestOpenUserBoundsError(t *testing.T) {
	dir := t.TempDir()
	key := testKey(3, 1, 6*time.Hour)
	fillTestRecords(t, dir, key)
	for _, u := range []int{-1, 3, 1 << 20} {
		_, err := OpenUser(dir, key, u)
		if err == nil {
			t.Fatalf("OpenUser(%d) accepted an out-of-range user", u)
		}
		if !strings.Contains(err.Error(), "outside store population") {
			t.Fatalf("OpenUser(%d) error does not name the geometry: %v", u, err)
		}
	}
}

// TestOpenUserReadsOnlyItsShard is the O(one shard) pin: with every
// payload byte OUTSIDE user u's manifest shard corrupted, OpenUser(u)
// must still succeed — proving it never reads (let alone validates)
// other shards — while users in the damaged shards, and the
// full-validation Open, must fail.
func TestOpenUserReadsOnlyItsShard(t *testing.T) {
	dir := t.TempDir()
	users := 2*ManifestShardUsers + 40 // three shards, last one ragged
	key := testKey(users, 1, 6*time.Hour)
	payload := fillTestRecords(t, dir, key)
	rf := key.Layout().RecordFloats()
	u := ManifestShardUsers + 7 // lives in shard 1
	shardLo := headerBytes + ManifestShardUsers*rf*8
	shardHi := shardLo + ManifestShardUsers*rf*8
	corrupt(t, key.Path(dir), func(b []byte) []byte {
		for i := headerBytes; i < len(b); i++ {
			if i < shardLo || i >= shardHi {
				b[i] ^= 0xff
			}
		}
		return b
	})
	rec, err := OpenUser(dir, key, u)
	if err != nil {
		t.Fatalf("OpenUser touched bytes outside its shard: %v", err)
	}
	for i, v := range rec.rec {
		if v != payload[u*rf+i] {
			t.Fatalf("float %d: %g != written %g", i, v, payload[u*rf+i])
		}
	}
	for _, bad := range []int{0, ManifestShardUsers - 1, 2 * ManifestShardUsers, users - 1} {
		if _, err := OpenUser(dir, key, bad); err == nil {
			t.Fatalf("OpenUser(%d) accepted a corrupted shard", bad)
		}
	}
	if _, err := Open(dir, key); err == nil {
		t.Fatal("full Open accepted a corrupted payload")
	}
}

// TestShardCorruptionIsolated: a single bit flip in one shard fails
// exactly that shard's users; every other shard still serves.
func TestShardCorruptionIsolated(t *testing.T) {
	dir := t.TempDir()
	users := 3 * ManifestShardUsers
	key := testKey(users, 1, 6*time.Hour)
	fillTestRecords(t, dir, key)
	rf := key.Layout().RecordFloats()
	corrupt(t, key.Path(dir), func(b []byte) []byte {
		b[headerBytes+ManifestShardUsers*rf*8+17] ^= 0x04 // first byte region of shard 1
		return b
	})
	for u := 0; u < users; u += ManifestShardUsers / 2 {
		_, err := OpenUser(dir, key, u)
		inBad := u/ManifestShardUsers == 1
		if inBad && err == nil {
			t.Fatalf("OpenUser(%d) accepted its corrupted shard", u)
		}
		if !inBad && err != nil {
			t.Fatalf("OpenUser(%d) failed for a corruption in another shard: %v", u, err)
		}
	}
}

func TestOpenUserRejectsManifestDamage(t *testing.T) {
	key := testKey(5, 1, 6*time.Hour)
	for name, mutate := range map[string]func(b []byte) []byte{
		"bit flip":     func(b []byte) []byte { b[manifestHdrBytes+1] ^= 0x10; return b },
		"truncated":    func(b []byte) []byte { return b[:len(b)-4] },
		"bad magic":    func(b []byte) []byte { b[0] = 'X'; return b },
		"wrong engine": func(b []byte) []byte { b[8+8] ^= 0xff; return b },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			fillTestRecords(t, dir, key)
			corrupt(t, key.ManifestPath(dir), mutate)
			if _, err := OpenUser(dir, key, 0); err == nil {
				t.Fatal("OpenUser accepted a damaged manifest")
			} else {
				t.Log(err)
			}
			// The full-validation path does not depend on the sidecar.
			s, err := Open(dir, key)
			if err != nil {
				t.Fatalf("Open rejected a store with only manifest damage: %v", err)
			}
			s.Close()
		})
	}
}

func TestOpenUserMissingManifestIsNotExist(t *testing.T) {
	dir := t.TempDir()
	key := testKey(3, 1, 6*time.Hour)
	fillTestRecords(t, dir, key)
	if err := os.Remove(key.ManifestPath(dir)); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenUser(dir, key, 1); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("err = %v, want fs.ErrNotExist (pre-manifest store)", err)
	}
}

func TestRejectsNonDayDividingBinWidth(t *testing.T) {
	// Both widths divide a week but not a day; the 1120m one slipped
	// through the old week-divisibility check and truncated BinsPerDay
	// from 9/7 to 1, silently corrupting day views.
	for _, bw := range []time.Duration{1120 * time.Minute, 56 * time.Hour} {
		key := testKey(2, 1, bw)
		if _, err := Create(t.TempDir(), key); err == nil {
			t.Fatalf("Create accepted bin width %v (does not divide a day)", bw)
		} else if !strings.Contains(err.Error(), "does not divide a day") {
			t.Fatalf("bin width %v: unexpected error %v", bw, err)
		}
	}
}

func TestCreateSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	key := testKey(2, 1, 6*time.Hour)
	stale := filepath.Join(dir, "ws-s9-u2-w1-b6h0m0s-v1-dead.snap.tmp123")
	fresh := filepath.Join(dir, "ws-s9-u2-w1-b6h0m0s-v1-beef.snap.tmp456")
	sealed := filepath.Join(dir, "ws-s9-u2-w1-b6h0m0s-v1-cafe.snap")
	for _, p := range []string{stale, fresh, sealed} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * StaleTempAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(sealed, old, old); err != nil {
		t.Fatal(err)
	}
	w, err := Create(dir, key)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if _, err := os.Stat(stale); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("stale temp survived Create: %v", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("fresh temp (a live concurrent build) was swept: %v", err)
	}
	if _, err := os.Stat(sealed); err != nil {
		t.Fatalf("sealed snapshot was swept: %v", err)
	}
}

func TestGCRetention(t *testing.T) {
	dir := t.TempDir()
	// Three sealed stores with distinct keys and strictly ordered
	// mtimes (oldest first).
	keys := []Key{
		testKey(2, 1, 6*time.Hour),
		testKey(3, 1, 6*time.Hour),
		testKey(4, 1, 6*time.Hour),
	}
	for i, k := range keys {
		fillTestRecords(t, dir, k)
		mt := time.Now().Add(time.Duration(i-len(keys)) * time.Hour)
		if err := os.Chtimes(k.Path(dir), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	// An orphan manifest and an already-merged part leftover.
	orphan := filepath.Join(dir, "ws-s9-u99-w1-b6h0m0s-v1-feed.snap.manifest")
	if err := os.WriteFile(orphan, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	mergedPart := keys[2].PartPath(dir, 0, 2)
	if err := os.WriteFile(mergedPart, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	// An unmerged build's part (no sealed snapshot for its key): kept.
	pendingKey := testKey(7, 1, 6*time.Hour)
	pendingPart := pendingKey.PartPath(dir, 0, 7)
	if err := os.WriteFile(pendingPart, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	dry, err := GC(dir, GCOptions{KeepLatest: 1, DryRun: true})
	if err != nil {
		t.Fatal(err)
	}
	if dry.Kept != 1 || dry.Removed == 0 {
		t.Fatalf("dry run stats: %+v", dry)
	}
	for _, k := range keys { // dry run must not remove anything
		if _, err := os.Stat(k.Path(dir)); err != nil {
			t.Fatalf("dry run removed %s: %v", k.Filename(), err)
		}
	}

	st, err := GC(dir, GCOptions{KeepLatest: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Kept != 1 {
		t.Fatalf("kept %d snapshots, want 1", st.Kept)
	}
	if _, err := os.Stat(keys[2].Path(dir)); err != nil {
		t.Fatalf("newest snapshot evicted: %v", err)
	}
	for _, k := range keys[:2] {
		if _, err := os.Stat(k.Path(dir)); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("old snapshot %s survived: %v", k.Filename(), err)
		}
		if _, err := os.Stat(k.ManifestPath(dir)); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("old manifest %s survived: %v", k.Filename(), err)
		}
	}
	if _, err := os.Stat(orphan); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("orphan manifest survived")
	}
	if _, err := os.Stat(mergedPart); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("already-merged part survived")
	}
	if _, err := os.Stat(pendingPart); err != nil {
		t.Fatalf("pending (unmerged) part was removed: %v", err)
	}
	// The kept store still opens through both paths.
	s, err := Open(dir, keys[2])
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := OpenUser(dir, keys[2], 0); err != nil {
		t.Fatal(err)
	}

	// Byte-cap form: a budget below the survivor's size evicts it too.
	if _, err := GC(dir, GCOptions{MaxBytes: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(keys[2].Path(dir)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("byte cap did not evict the last snapshot")
	}
}
