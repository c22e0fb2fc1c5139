package main

import (
	"bytes"
	"context"
	"log"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/features"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// TestSnapshotMatrixLoadPath is the agent-side regression test for the
// snapshot load path: warm stores serve the exact synthesized matrix
// through the O(record) read, a store without its manifest yields nil
// logged as damaged (not cold), and out-of-range users — the
// historical index-panic — degrade to nil (synthetic path) on every
// branch.
func TestSnapshotMatrixLoadPath(t *testing.T) {
	pop, err := trace.NewPopulation(trace.Config{Users: 4, Weeks: 1, Seed: 3, BinWidth: 6 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var logs bytes.Buffer
	log.SetOutput(&logs)
	defer log.SetOutput(os.Stderr)
	expectLog := func(want string) {
		t.Helper()
		if !strings.Contains(logs.String(), want) {
			t.Fatalf("log %q does not say %q", logs.String(), want)
		}
		logs.Reset()
	}

	// Cold store: nil, no panic, for valid and invalid users alike.
	for _, u := range []int{0, -1, 99} {
		if m := snapshotMatrix(dir, u, pop); m != nil {
			t.Fatalf("cold store returned a matrix for user %d", u)
		}
		expectLog("is cold")
	}

	key, err := snapshot.KeyFor(pop.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := analysis.MaterializeSharded(context.Background(), dir, key, 0, func(u int, rows [][features.NumFeatures]float64) {
		pop.Users[u].FillSeries(rows)
	})
	if err != nil {
		t.Fatal(err)
	}
	ws.Close()

	// Warm store: the bit-identical series.
	for _, u := range []int{0, 3} {
		m := snapshotMatrix(dir, u, pop)
		if m == nil {
			t.Fatalf("warm store returned nil for user %d", u)
		}
		if want := pop.Users[u].Series(); !reflect.DeepEqual(m.Rows, want.Rows) {
			t.Fatalf("user %d: snapshot matrix diverges from synthesized series", u)
		}
	}
	// Out-of-range users are an error from the read, never a panic.
	for _, u := range []int{-1, 4, 1 << 20} {
		if m := snapshotMatrix(dir, u, pop); m != nil {
			t.Fatalf("out-of-range user %d got a matrix", u)
		}
		expectLog("outside store population")
	}

	// A store without its manifest (a merge cut off between its two
	// renames) is damaged, not cold, and serves no user.
	if err := os.Remove(key.ManifestPath(dir)); err != nil {
		t.Fatal(err)
	}
	for _, u := range []int{2, 7} {
		if m := snapshotMatrix(dir, u, pop); m != nil {
			t.Fatalf("store without its manifest returned a matrix for user %d", u)
		}
		if strings.Contains(logs.String(), "is cold") {
			t.Fatalf("store without its manifest logged as cold: %q", logs.String())
		}
		expectLog("no manifest")
	}
}
