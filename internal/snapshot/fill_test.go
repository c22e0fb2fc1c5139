package snapshot

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/features"
	"repro/internal/trace"
)

// TestFillMatchesSealedStore pins the heap store to the file: every
// record Fill writes equals, bit for bit, the record a one-range
// BuildPart + MergeShards seals and Open maps, over real trace
// generators at 15-minute and hourly bins.
func TestFillMatchesSealedStore(t *testing.T) {
	for _, bw := range []time.Duration{15 * time.Minute, time.Hour} {
		pop := trace.MustPopulation(trace.Config{Users: 6, Weeks: 2, Seed: 5, BinWidth: bw})
		key, err := KeyFor(pop.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		fill := func(u int, rows [][features.NumFeatures]float64) { pop.Users[u].FillSeries(rows) }
		heap, err := Fill(key, fill)
		if err != nil {
			t.Fatalf("%v bins: %v", bw, err)
		}
		dir := t.TempDir()
		if err := BuildPart(context.Background(), dir, key, 0, key.Users, 0, fill); err != nil {
			t.Fatal(err)
		}
		if _, err := MergeShards(dir, key); err != nil {
			t.Fatal(err)
		}
		sealed, err := Open(dir, key)
		if err != nil {
			t.Fatal(err)
		}
		if heap.Layout() != sealed.Layout() {
			t.Fatalf("%v bins: layout %+v != sealed %+v", bw, heap.Layout(), sealed.Layout())
		}
		for u := 0; u < key.Users; u++ {
			if !bytes.Equal(floatBytes(heap.User(u)), floatBytes(sealed.User(u))) {
				t.Fatalf("%v bins: user %d record differs from the sealed store", bw, u)
			}
		}
		if err := sealed.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFillDropAndCloseKeepViews pins the heap store's lifetime: it has
// no mapping, so DropUserRange and Close release nothing and a view
// taken before either stays readable with its values intact.
func TestFillDropAndCloseKeepViews(t *testing.T) {
	key := testKey(4, 1, 6*time.Hour)
	want := testPayload(key)
	rf := key.Layout().RecordFloats()
	s, err := Fill(key, func(u int, rows [][features.NumFeatures]float64) {
		for b := range rows {
			copy(rows[b][:], want[u*rf+b*features.NumFeatures:])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	col := s.SortedColumn(2, 0, int(features.TCP))
	days := s.DayColumns(3, 0, int(features.UDP))
	check := func(when string) {
		t.Helper()
		if !bytes.Equal(floatBytes(col), floatBytes(want[2*rf+key.Layout().SortedOff(0, int(features.TCP)):][:len(col)])) {
			t.Fatalf("%s: held sorted column changed", when)
		}
		off := 3*rf + key.Layout().DayOff(0, int(features.UDP))
		for d, day := range days {
			if !bytes.Equal(floatBytes(day), floatBytes(want[off+d*len(day):][:len(day)])) {
				t.Fatalf("%s: held day %d view changed", when, d)
			}
		}
	}
	check("after Fill")
	s.DropUserRange(0, key.Users)
	check("after DropUserRange")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	check("after Close")
}

// TestFillRejectsBadGeometry pins that a key with no users, no weeks
// or a bin width that does not divide a day is refused with an error,
// before any record is filled.
func TestFillRejectsBadGeometry(t *testing.T) {
	for name, key := range map[string]Key{
		"no users":               testKey(0, 1, time.Hour),
		"no weeks":               testKey(3, 0, time.Hour),
		"zero width":             testKey(3, 1, 0),
		"width not dividing day": testKey(3, 1, 1120*time.Minute),
	} {
		s, err := Fill(key, func(int, [][features.NumFeatures]float64) {
			t.Errorf("%s: fill called", name)
		})
		if err == nil || s != nil {
			t.Fatalf("%s: Fill = %v, %v; want an error", name, s, err)
		}
	}
}

// TestFillRefusesNaN pins that Fill runs the part gate's scan: a fill
// that writes a NaN is refused, naming the user, because the views a
// workspace adopts without validation must be sorted and NaN-free.
func TestFillRefusesNaN(t *testing.T) {
	key := testKey(3, 1, 6*time.Hour)
	_, err := Fill(key, func(u int, rows [][features.NumFeatures]float64) {
		for b := range rows {
			rows[b] = [features.NumFeatures]float64{1, 2, 3, 4, 5, 6}
		}
		if u == 1 {
			rows[5][features.DNS] = math.NaN()
		}
	})
	if err == nil || !strings.Contains(err.Error(), "user 1:") {
		t.Fatalf("Fill = %v, want a refusal naming user 1", err)
	}
}
