package snapshot

import (
	"bytes"
	"errors"
	"io/fs"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/features"
	"repro/internal/xrand"
)

// testPayload returns the same deterministic payload fillTestRecords
// seals, without writing anything: pseudo-random matrix rows, with
// each record's sorted columns and day views derived from them by
// fillDerived, as the part builder derives them — the part gate
// refuses a record whose derived sections are not sorted.
func testPayload(key Key) []float64 {
	lay := key.Layout()
	payload := make([]float64, lay.PayloadFloats())
	r := xrand.New(41)
	rf, rows := lay.RecordFloats(), lay.Bins()*features.NumFeatures
	for u := 0; u < lay.Users; u++ {
		rec := payload[u*rf : (u+1)*rf]
		for i := range rec[:rows] {
			rec[i] = float64(r.Intn(1 << 20))
		}
		fillDerived(rec, lay)
	}
	return payload
}

// sealParts writes the payload's user ranges as sealed part files.
func sealParts(t testing.TB, dir string, key Key, payload []float64, cuts []int) {
	t.Helper()
	rf := key.Layout().RecordFloats()
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		w, err := CreateShard(dir, key, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AppendUsers(payload[lo*rf : hi*rf]); err != nil {
			t.Fatal(err)
		}
		if err := w.Finish(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMergedShardsByteIdentical is the central determinism pin: the
// same payload built as (a) one Writer and (b) sealed parts merged by
// MergeShards must produce byte-identical .snap AND .manifest files —
// including a ragged last shard and part boundaries that do not align
// with the manifest's integrity shards.
func TestMergedShardsByteIdentical(t *testing.T) {
	key := testKey(ManifestShardUsers+13, 1, 6*time.Hour)
	singleDir, mergedDir := t.TempDir(), t.TempDir()
	payload := fillTestRecords(t, singleDir, key)

	sealParts(t, mergedDir, key, payload, []int{0, 40, ManifestShardUsers + 1, key.Users})
	n, err := MergeShards(mergedDir, key)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("merged %d parts, want 3", n)
	}
	for _, suffix := range []string{"", manifestSuffix} {
		a, err := os.ReadFile(key.Path(singleDir) + suffix)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(key.Path(mergedDir) + suffix)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("single-writer and merged %q files differ (%d vs %d bytes)", ".snap"+suffix, len(a), len(b))
		}
	}
	// The consumed parts are gone; the merged store serves both paths.
	parts, err := findParts(mergedDir, key)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 0 {
		t.Fatalf("%d part files survived the merge", len(parts))
	}
	s, err := Open(mergedDir, key)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rf := key.Layout().RecordFloats()
	for _, u := range []int{0, 39, 40, ManifestShardUsers, key.Users - 1} {
		m, err := ReadUser(mergedDir, key, u)
		if err != nil {
			t.Fatalf("ReadUser(%d) on merged store: %v", u, err)
		}
		if m.Rows[0][3] != payload[u*rf+3] {
			t.Fatalf("merged record %d diverges from payload", u)
		}
	}
}

func TestCreateShardValidatesRange(t *testing.T) {
	dir := t.TempDir()
	key := testKey(10, 1, 6*time.Hour)
	for _, r := range [][2]int{{-1, 5}, {5, 5}, {6, 4}, {0, 11}} {
		if w, err := CreateShard(dir, key, r[0], r[1]); err == nil {
			w.Abort()
			t.Fatalf("CreateShard accepted range [%d, %d)", r[0], r[1])
		}
	}
}

func TestShardFinishRequiresFullRange(t *testing.T) {
	dir := t.TempDir()
	key := testKey(10, 1, 6*time.Hour)
	w, err := CreateShard(dir, key, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	rf := key.Layout().RecordFloats()
	if err := w.AppendUsers(make([]float64, rf)); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendUsers(make([]float64, 4*rf)); err == nil {
		t.Fatal("appended past the shard range")
	}
	if err := w.Finish(); err == nil {
		t.Fatal("Finish sealed a part with 1 of 4 users")
	}
	if _, err := os.Stat(key.PartPath(dir, 2, 6)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("partial part became visible: %v", err)
	}
}

func TestMergeRejectsBadTiling(t *testing.T) {
	key := testKey(12, 1, 6*time.Hour)
	payload := testPayload(key)
	for name, cuts := range map[string][]int{
		"gap":          {0, 4, 8}, // then a part [9, 12): hole at 8
		"missing tail": {0, 6},
		"missing head": {4, 12},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			sealParts(t, dir, key, payload, cuts)
			if name == "gap" {
				sealParts(t, dir, key, payload, []int{9, 12})
			}
			if _, err := MergeShards(dir, key); err == nil {
				t.Fatal("MergeShards accepted parts that do not tile the population")
			} else {
				t.Log(err)
			}
			if _, err := os.Stat(key.Path(dir)); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("failed merge left a sealed snapshot: %v", err)
			}
		})
	}
	if _, err := MergeShards(t.TempDir(), key); err == nil {
		t.Fatal("MergeShards accepted an empty directory")
	}
}

func TestMergeRejectsCorruptPart(t *testing.T) {
	dir := t.TempDir()
	key := testKey(8, 1, 6*time.Hour)
	payload := testPayload(key)
	sealParts(t, dir, key, payload, []int{0, 4, 8})
	corrupt(t, key.PartPath(dir, 4, 8), func(b []byte) []byte {
		b[partHdrBytes+21] ^= 0x01
		return b
	})
	if _, err := MergeShards(dir, key); err == nil {
		t.Fatal("MergeShards accepted a corrupt part")
	}
	if _, err := os.Stat(key.Path(dir)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("failed merge left a sealed snapshot: %v", err)
	}
}

// TestPartGateRefusesUnsortedSections seals parts whose checksums are
// all valid but whose derived sections break the sorted, NaN-free
// contract readers adopt them under: an unsorted week column, and a
// NaN in a day view. VerifyPart and MergeShards must both refuse them
// and name the column, and no store may be sealed. The same bytes
// flipped after sealing must read as corruption instead.
func TestPartGateRefusesUnsortedSections(t *testing.T) {
	key := testKey(8, 2, 6*time.Hour)
	lay := key.Layout()
	rf, bpw, bpd := lay.RecordFloats(), lay.BinsPerWeek, lay.BinsPerDay
	for _, tc := range []struct {
		name   string
		mutate func(payload []float64)
		want   string
	}{
		{"unsorted week column", func(p []float64) {
			col := p[5*rf+lay.SortedOff(1, 2):][:bpw]
			col[0], col[bpw-1] = col[bpw-1], col[0]
		}, "week 1 sorted column: sample 1 "},
		{"NaN in a day view", func(p []float64) {
			p[6*rf+lay.DayOff(0, 4)+3*bpd+1] = math.NaN()
		}, "week 0 day 3 view: sample 1 is NaN"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			payload := testPayload(key)
			tc.mutate(payload)
			dir := t.TempDir()
			sealParts(t, dir, key, payload, []int{0, 4, 8})
			if _, err := VerifyPart(dir, key, 0, 4); err != nil {
				t.Fatalf("VerifyPart refused the sound part: %v", err)
			}
			if _, err := VerifyPart(dir, key, 4, 8); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("VerifyPart = %v, want a refusal naming %q", err, tc.want)
			}
			if _, err := MergeShards(dir, key); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("MergeShards = %v, want a refusal naming %q", err, tc.want)
			}
			if _, err := os.Stat(key.Path(dir)); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("failed merge left a sealed snapshot: %v", err)
			}
		})
	}
	t.Run("corrupted after sealing", func(t *testing.T) {
		dir := t.TempDir()
		sealParts(t, dir, key, testPayload(key), []int{0, 8})
		corrupt(t, key.PartPath(dir, 0, 8), func(b []byte) []byte {
			b[partHdrBytes+8*(2*rf+lay.SortedOff(0, 0))+7] ^= 0x40 // sign-adjacent exponent bit
			return b
		})
		if _, err := VerifyPart(dir, key, 0, 8); err == nil || !strings.Contains(err.Error(), "payload checksum") {
			t.Fatalf("VerifyPart = %v, want the checksum refusal", err)
		}
	})
}

// writeRecorder records the offset and length of every write it
// receives, and the bytes.
type writeRecorder struct {
	buf    bytes.Buffer
	writes [][2]int // offset, length
}

func (r *writeRecorder) Write(p []byte) (int, error) {
	r.writes = append(r.writes, [2]int{r.buf.Len(), len(p)})
	return r.buf.Write(p)
}

// TestAlignedWriterWritesWholeBlocks scripts the merge's write pattern
// — a header, sub-block record runs, one run larger than a block, a
// tail — and pins every write the file sees: each starts at a
// hugeBlock-aligned offset and spans whole blocks, except the tail
// Flush writes, and the bytes are the input's. A bufio.Writer of the
// same size fails both scripts with a run over a block: it passes the
// run's remainder through whole, at an unaligned length.
func TestAlignedWriterWritesWholeBlocks(t *testing.T) {
	const mb = 1 << 20
	for _, tc := range []struct {
		name   string
		script []int // lengths of successive Write calls
		want   [][2]int
	}{
		{"header-then-blocks", []int{104, mb, mb, 5*mb + 3},
			[][2]int{{0, 2 * mb}, {2 * mb, 2 * mb}, {4 * mb, 2 * mb}, {6 * mb, mb + 107}}},
		{"aligned-passthrough", []int{4 * mb, 3, 2*mb - 3, 2*mb + 1},
			[][2]int{{0, 4 * mb}, {4 * mb, 2 * mb}, {6 * mb, 2 * mb}, {8 * mb, 1}}},
		{"tail-only", []int{104, 7}, [][2]int{{0, 111}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var rec writeRecorder
			aw := newAlignedWriter(&rec)
			var in []byte
			for i, n := range tc.script {
				p := make([]byte, n)
				for j := range p {
					p[j] = byte(len(in) + j*7 + i)
				}
				in = append(in, p...)
				if got, err := aw.Write(p); got != n || err != nil {
					t.Fatalf("write %d: %d, %v; want %d, nil", i, got, err, n)
				}
			}
			if err := aw.Flush(); err != nil {
				t.Fatal(err)
			}
			if len(rec.writes) != len(tc.want) {
				t.Fatalf("writes %v, want %v", rec.writes, tc.want)
			}
			for i, w := range rec.writes {
				if w != tc.want[i] {
					t.Fatalf("write %d at offset %d length %d, want offset %d length %d", i, w[0], w[1], tc.want[i][0], tc.want[i][1])
				}
			}
			if !bytes.Equal(rec.buf.Bytes(), in) {
				t.Fatal("written bytes differ from the input")
			}
		})
	}
}
