package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/features"
)

// TestManifestSealedWithSnapshot: every sealed store has its manifest,
// and ReadUser serves each user's rows exactly as written and as
// Open's mapping serves them, with the key's matrix metadata.
func TestManifestSealedWithSnapshot(t *testing.T) {
	dir := t.TempDir()
	key := testKey(5, 2, 6*time.Hour)
	payload := fillTestRecords(t, dir, key)
	if _, err := os.Stat(key.ManifestPath(dir)); err != nil {
		t.Fatalf("no manifest sidecar after Finish: %v", err)
	}
	s, err := Open(dir, key)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	lay := key.Layout()
	rf := lay.RecordFloats()
	for u := 0; u < key.Users; u++ {
		m, err := ReadUser(dir, key, u)
		if err != nil {
			t.Fatalf("ReadUser(%d): %v", u, err)
		}
		if m.BinWidth != key.BinWidth || m.StartMicros != key.StartMicros {
			t.Fatalf("ReadUser(%d) matrix metadata %v/%d, want %v/%d", u, m.BinWidth, m.StartMicros, key.BinWidth, key.StartMicros)
		}
		if len(m.Rows) != lay.Bins() || !reflect.DeepEqual(m.Rows, s.Rows(u)) {
			t.Fatalf("ReadUser(%d) rows diverge from the mapped store", u)
		}
		for i, row := range m.Rows {
			for f, v := range row {
				if want := payload[u*rf+i*features.NumFeatures+f]; v != want {
					t.Fatalf("user %d row %d feature %d: %g != written %g", u, i, f, v, want)
				}
			}
		}
	}
}

func TestReadUserBoundsError(t *testing.T) {
	dir := t.TempDir()
	key := testKey(3, 1, 6*time.Hour)
	fillTestRecords(t, dir, key)
	for _, u := range []int{-1, 3, 1 << 20} {
		_, err := ReadUser(dir, key, u)
		if err == nil {
			t.Fatalf("ReadUser(%d) accepted an out-of-range user", u)
		}
		if !strings.Contains(err.Error(), "outside store population") {
			t.Fatalf("ReadUser(%d) error does not name the geometry: %v", u, err)
		}
	}
}

// TestReadUserReadsOnlyItsRecord is the O(record) pin: with every
// payload byte outside user u's record corrupted, ReadUser(u) must
// still succeed — it reads no other record, its shard-mates included
// — while every other user, and the full-validation Open, must fail.
func TestReadUserReadsOnlyItsRecord(t *testing.T) {
	dir := t.TempDir()
	users := 2*ManifestShardUsers + 40 // three shards, last one ragged
	key := testKey(users, 1, 6*time.Hour)
	payload := fillTestRecords(t, dir, key)
	rf := key.Layout().RecordFloats()
	u := ManifestShardUsers + 7 // inside shard 1
	recLo := headerBytes + u*rf*8
	recHi := recLo + rf*8
	corrupt(t, key.Path(dir), func(b []byte) []byte {
		for i := headerBytes; i < len(b); i++ {
			if i < recLo || i >= recHi {
				b[i] ^= 0xff
			}
		}
		return b
	})
	m, err := ReadUser(dir, key, u)
	if err != nil {
		t.Fatalf("ReadUser touched bytes outside its record: %v", err)
	}
	if m.Rows[3][2] != payload[u*rf+3*features.NumFeatures+2] {
		t.Fatal("ReadUser served a record that diverges from the one written")
	}
	for bad := 0; bad < users; bad++ {
		if bad == u {
			continue
		}
		if _, err := ReadUser(dir, key, bad); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("user %d ", bad)) {
			t.Fatalf("ReadUser(%d) on a corrupted record: err = %v", bad, err)
		}
	}
	if _, err := Open(dir, key); err == nil {
		t.Fatal("full Open accepted a corrupted payload")
	}
}

// TestShardCorruptionIsolated: a single bit flip in one record fails
// exactly that user's ReadUser; every other user, its manifest-shard
// mates included, still serves, and Open names the user.
func TestShardCorruptionIsolated(t *testing.T) {
	dir := t.TempDir()
	users := 3 * ManifestShardUsers
	key := testKey(users, 1, 6*time.Hour)
	fillTestRecords(t, dir, key)
	rf := key.Layout().RecordFloats()
	const bad = ManifestShardUsers // first record of shard 1
	corrupt(t, key.Path(dir), func(b []byte) []byte {
		b[headerBytes+bad*rf*8+17] ^= 0x04
		return b
	})
	for _, u := range []int{0, bad - 1, bad, bad + 1, bad + ManifestShardUsers/2, users - 1} {
		_, err := ReadUser(dir, key, u)
		if u == bad && err == nil {
			t.Fatalf("ReadUser(%d) accepted its corrupted record", u)
		}
		if u != bad && err != nil {
			t.Fatalf("ReadUser(%d) failed for a corruption in another record: %v", u, err)
		}
	}
	if _, err := Open(dir, key); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("user %d ", bad)) {
		t.Fatalf("Open on a corrupted record: err = %v, want one naming user %d", err, bad)
	}
}

// resealManifest recomputes a manifest image's self-CRC trailer, so a
// mutation of its fields or tables reaches the checks behind it.
func resealManifest(b []byte) []byte {
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.Checksum(b[:len(b)-4], crcTable))
	return b
}

// TestRejectsManifestDamage: a damaged manifest, one without its
// record table, and one whose record table disagrees with its shard
// table or with the header checksum, each make the store unusable to
// both readers.
func TestRejectsManifestDamage(t *testing.T) {
	key := testKey(5, 1, 6*time.Hour)
	recBytes := int64(key.Layout().RecordFloats()) * 8
	for name, mutate := range map[string]func(b []byte) []byte{
		"bit flip":     func(b []byte) []byte { b[manifestHdrBytes+1] ^= 0x10; return b },
		"truncated":    func(b []byte) []byte { return b[:len(b)-4] },
		"bad magic":    func(b []byte) []byte { b[0] = 'X'; return b },
		"wrong engine": func(b []byte) []byte { b[8+8] ^= 0xff; return b },
		"record table flag cleared": func(b []byte) []byte {
			b[8+8*12] &^= manifestFlagRecordCRCs
			return resealManifest(b)
		},
		"record table dropped": func(b []byte) []byte {
			b[8+8*12] &^= manifestFlagRecordCRCs
			n := manifestHdrBytes + 4*ManifestShards(key.Users)
			return resealManifest(append(b[:n], 0, 0, 0, 0))
		},
		"shard table disagrees": func(b []byte) []byte {
			b[manifestHdrBytes] ^= 0x01
			return resealManifest(b)
		},
		"header checksum disagrees": func(b []byte) []byte {
			// A record table and shard table that agree with each
			// other, but not with the store's header.
			_, rec, err := decodeManifest(b, key)
			if err != nil {
				t.Fatal(err)
			}
			rec[2] ^= 0x01
			shards, _ := foldRecordCRCs(rec, recBytes)
			return encodeManifest(key, shards, rec)
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			fillTestRecords(t, dir, key)
			corrupt(t, key.ManifestPath(dir), mutate)
			if _, err := ReadUser(dir, key, 0); err == nil {
				t.Fatal("ReadUser accepted a damaged manifest")
			} else {
				t.Log(err)
			}
			if _, err := Open(dir, key); err == nil {
				t.Fatal("Open accepted a damaged manifest")
			}
		})
	}
}

// TestMissingManifestRefused: a store whose manifest is missing (a
// merge cut off between its two renames) is refused by both readers
// as unusable, never reported as absent: fs.ErrNotExist would tell
// callers the store is merely cold.
func TestMissingManifestRefused(t *testing.T) {
	dir := t.TempDir()
	key := testKey(3, 1, 6*time.Hour)
	fillTestRecords(t, dir, key)
	if err := os.Remove(key.ManifestPath(dir)); err != nil {
		t.Fatal(err)
	}
	_, rerr := ReadUser(dir, key, 1)
	_, oerr := Open(dir, key)
	for _, err := range []error{rerr, oerr} {
		if err == nil || errors.Is(err, fs.ErrNotExist) || !strings.Contains(err.Error(), "no manifest") {
			t.Fatalf("err = %v, want a non-ErrNotExist error naming the missing manifest", err)
		}
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
	// The kept store still opens through both readers.
	s, err := Open(dir, keys[2])
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := ReadUser(dir, keys[2], 0); err != nil {
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
