package snapshot

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

func testKey(users, weeks int, binWidth time.Duration) Key {
	return Key{
		Seed:          9,
		Users:         users,
		Weeks:         weeks,
		BinWidth:      binWidth,
		StartMicros:   trace.DefaultStartMicros,
		HeavyFraction: 0.15,
		WeeklyTrend:   0.8,
	}
}

// fillTestRecords writes deterministic pseudo-random records for the
// whole key and seals the snapshot, returning the payload written.
func fillTestRecords(t *testing.T, dir string, key Key) []float64 {
	t.Helper()
	w, err := Create(dir, key)
	if err != nil {
		t.Fatal(err)
	}
	payload := testPayload(key)
	// Append in deliberately ragged chunks (1 user, then the rest) to
	// exercise multi-append accounting.
	rf := w.Layout().RecordFloats()
	if err := w.AppendUsers(payload[:rf]); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendUsers(payload[rf:]); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	return payload
}

func TestWriterReaderRoundTrip(t *testing.T) {
	dir := t.TempDir()
	key := testKey(3, 2, 6*time.Hour) // bpw 28, bpd 4
	payload := fillTestRecords(t, dir, key)
	s, err := Open(dir, key)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	lay := s.Layout()
	if lay != key.Layout() {
		t.Fatalf("layout %+v != %+v", lay, key.Layout())
	}
	rf := lay.RecordFloats()
	for u := 0; u < key.Users; u++ {
		rec := s.User(u)
		for i, v := range rec {
			if v != payload[u*rf+i] {
				t.Fatalf("user %d float %d: %g != written %g", u, i, v, payload[u*rf+i])
			}
		}
		rows := s.Rows(u)
		if len(rows) != lay.Bins() {
			t.Fatalf("user %d: %d rows, want %d", u, len(rows), lay.Bins())
		}
		if rows[2][3] != rec[2*6+3] {
			t.Fatal("rows view does not alias the record")
		}
		for week := 0; week < key.Weeks; week++ {
			for f := 0; f < 6; f++ {
				col := s.SortedColumn(u, week, f)
				if len(col) != lay.BinsPerWeek {
					t.Fatalf("sorted column len %d, want %d", len(col), lay.BinsPerWeek)
				}
				if &col[0] != &rec[lay.SortedOff(week, f)] {
					t.Fatal("sorted column does not alias the record")
				}
				days := s.DayColumns(u, week, f)
				if len(days) != 7 || len(days[0]) != lay.BinsPerDay {
					t.Fatalf("day view shape %dx%d", len(days), len(days[0]))
				}
				if &days[3][0] != &rec[lay.DayOff(week, f)+3*lay.BinsPerDay] {
					t.Fatal("day view does not alias the record")
				}
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestOpenMissingIsNotExist(t *testing.T) {
	_, err := Open(t.TempDir(), testKey(2, 1, 6*time.Hour))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("err = %v, want fs.ErrNotExist", err)
	}
}

// corrupt opens the sealed snapshot file and hands its bytes to
// mutate, writing the result back.
func corrupt(t *testing.T, path string, mutate func(b []byte) []byte) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutate(b), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRejectsCorruption(t *testing.T) {
	key := testKey(2, 1, 6*time.Hour)
	for name, mutate := range map[string]func(b []byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)-8] },
		"bit flip in payload": func(b []byte) []byte {
			b[headerBytes+17] ^= 0x04
			return b
		},
		"bit flip in header checksum": func(b []byte) []byte {
			b[headerBytes-1] ^= 0x80
			return b
		},
		"wrong engine version": func(b []byte) []byte {
			b[8+8] ^= 0xff // low byte of the engine field
			return b
		},
		"wrong header version": func(b []byte) []byte {
			b[8] ^= 0xff
			return b
		},
		"wrong seed": func(b []byte) []byte {
			b[8+2*8] ^= 0x01
			return b
		},
		"bad magic": func(b []byte) []byte {
			b[0] = 'X'
			return b
		},
		"grown": func(b []byte) []byte { return append(b, 0) },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			fillTestRecords(t, dir, key)
			corrupt(t, key.Path(dir), mutate)
			if _, err := Open(dir, key); err == nil {
				t.Fatal("Open accepted a corrupt snapshot")
			} else {
				t.Log(err)
			}
		})
	}
}

// TestOpenChecksumRangesRejectBitFlips pins the parallel record
// verifier: one flipped bit at the first or last payload byte, on
// either side of any worker's user-range boundary, or at either edge
// of a record, is rejected with an error naming the user that holds
// it however GOMAXPROCS cuts the ranges, and the intact store opens.
func TestOpenChecksumRangesRejectBitFlips(t *testing.T) {
	key := testKey(11, 1, 15*time.Minute) // four ranges of 2–3 users at GOMAXPROCS 4
	recBytes := int64(key.Layout().RecordFloats()) * 8
	dir := t.TempDir()
	fillTestRecords(t, dir, key)
	f, err := os.OpenFile(key.Path(dir), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	flip := func(off int64) {
		t.Helper()
		var b [1]byte
		if _, err := f.ReadAt(b[:], headerBytes+off); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0x10
		if _, err := f.WriteAt(b[:], headerBytes+off); err != nil {
			t.Fatal(err)
		}
	}
	n := int64(key.Users) * recBytes
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			bounds := userRanges(key.Users, procs)
			if got := len(bounds) - 1; got != procs {
				t.Fatalf("%d user ranges, want %d", got, procs)
			}
			offsets := []int64{0, n - 1, 5 * recBytes, 6*recBytes - 1} // payload ends, user 5's edges
			for _, b := range bounds[1 : len(bounds)-1] {
				offsets = append(offsets, int64(b)*recBytes-1, int64(b)*recBytes)
			}
			for _, off := range offsets {
				flip(off)
				want := fmt.Sprintf("user %d record checksum", off/recBytes)
				if _, err := Open(dir, key); err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("bit flip at payload byte %d: err = %v, want %q", off, err, want)
				}
				flip(off)
			}
			s, err := Open(dir, key)
			if err != nil {
				t.Fatal(err)
			}
			s.Close()
		})
	}
}

func TestFinishRequiresAllUsers(t *testing.T) {
	dir := t.TempDir()
	key := testKey(3, 1, 6*time.Hour)
	w, err := Create(dir, key)
	if err != nil {
		t.Fatal(err)
	}
	rf := w.Layout().RecordFloats()
	if err := w.AppendUsers(make([]float64, rf)); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err == nil {
		t.Fatal("Finish sealed a snapshot with 1 of 3 users")
	}
	if _, err := os.Stat(key.Path(dir)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("partial snapshot became visible: %v", err)
	}
	// The aborted temp file must be gone too.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("directory not clean after abort: %v", ents)
	}
}

func TestAppendRejectsOverflowAndRaggedRecords(t *testing.T) {
	dir := t.TempDir()
	key := testKey(2, 1, 6*time.Hour)
	w, err := Create(dir, key)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	rf := w.Layout().RecordFloats()
	if err := w.AppendUsers(make([]float64, rf-1)); err == nil {
		t.Fatal("accepted a partial record")
	}
	if err := w.AppendUsers(make([]float64, 3*rf)); err == nil {
		t.Fatal("accepted more users than declared")
	}
}

func TestKeyForNormalizes(t *testing.T) {
	sparse, err := KeyFor(trace.Config{Users: 10, Weeks: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	full, err := KeyFor(trace.Config{
		Users: 10, Weeks: 2, Seed: 3,
		BinWidth: 15 * time.Minute, StartMicros: trace.DefaultStartMicros,
		HeavyFraction: 0.15, WeeklyTrend: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sparse != full {
		t.Fatalf("sparse key %+v != defaulted key %+v", sparse, full)
	}
}

func TestFilenameSeparatesKeys(t *testing.T) {
	base := testKey(10, 2, 15*time.Minute)
	seen := map[string]string{base.Filename(): "base"}
	for name, k := range map[string]Key{
		"seed":  {Seed: 10, Users: 10, Weeks: 2, BinWidth: 15 * time.Minute, StartMicros: base.StartMicros, HeavyFraction: 0.15, WeeklyTrend: 0.8},
		"users": {Seed: 9, Users: 11, Weeks: 2, BinWidth: 15 * time.Minute, StartMicros: base.StartMicros, HeavyFraction: 0.15, WeeklyTrend: 0.8},
		"trend": {Seed: 9, Users: 10, Weeks: 2, BinWidth: 15 * time.Minute, StartMicros: base.StartMicros, HeavyFraction: 0.15, WeeklyTrend: 0.92},
		"start": {Seed: 9, Users: 10, Weeks: 2, BinWidth: 15 * time.Minute, StartMicros: base.StartMicros + 1, HeavyFraction: 0.15, WeeklyTrend: 0.8},
	} {
		fn := k.Filename()
		if prev, dup := seen[fn]; dup {
			t.Fatalf("key variant %q collides with %q: %s", name, prev, fn)
		}
		seen[fn] = name
	}
}
