package analysis

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/features"
)

// mappedTriple materializes one sharded store and returns it three
// ways: a heap workspace over its matrices, the mapped store
// unarmed, and the mapped store bounded to shardUsers.
func mappedTriple(t *testing.T, users int, seed uint64, shardUsers int) (names []string, ws []*Workspace) {
	t.Helper()
	pop, key := popAndKey(t, users, 2, seed, 6*time.Hour)
	dir := t.TempDir()
	mapped, err := MaterializeSharded(context.Background(), dir, key, 0, func(u int, rows [][features.NumFeatures]float64) {
		pop.Users[u].FillSeries(rows)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mapped.Close() })
	return []string{"heap", "mapped", "bounded"},
		[]*Workspace{generated(t, mapped.Matrices()), mapped, loadArmed(t, dir, key, shardUsers)}
}

// TestBenignScoreMatchesEvaluate pins Score's sorted-column benign
// jobs to core.ScorePoint over the raw test column, window by window:
// the same operating point, bits included, at thresholds equal to a
// sample, between two samples, at and below the minimum, at and above
// the maximum, and at ±Inf, with an overlay job in the same pass, on
// heap, mapped and bounded workspaces.
func TestBenignScoreMatchesEvaluate(t *testing.T) {
	const users = 23
	f, week := features.TCP, 1
	names, inputs := mappedTriple(t, users, 61, 5)
	ref := inputs[0]
	raw, sorted := ref.Raw(f, week), ref.Sorted(f, week)
	kinds := map[string]func(col []float64) float64{
		"a sample": func(col []float64) float64 { return col[len(col)/2] },
		"between samples": func(col []float64) float64 {
			for i := len(col) - 1; i > 0; i-- {
				if col[i] != col[i-1] {
					return (col[i] + col[i-1]) / 2
				}
			}
			return col[0] + 0.5
		},
		"the minimum":   func(col []float64) float64 { return col[0] },
		"below the min": func(col []float64) float64 { return col[0] - 1 },
		"the maximum":   func(col []float64) float64 { return col[len(col)-1] },
		"above the max": func(col []float64) float64 { return col[len(col)-1] + 1 },
		"+Inf":          func([]float64) float64 { return math.Inf(1) },
		"-Inf":          func([]float64) float64 { return math.Inf(-1) },
	}
	overlay := make([]float64, ref.BinsPerWeek())
	for b := 2; b < len(overlay); b += 3 {
		overlay[b] = float64(1 + b%11)
	}
	var jobs []Scoring
	var kindOf []string
	for kind, thrOf := range kinds {
		asn := &core.Assignment{Thresholds: make([]float64, users)}
		for u := range asn.Thresholds {
			asn.Thresholds[u] = thrOf(sorted[u])
		}
		jobs = append(jobs, Scoring{Assignment: asn})
		kindOf = append(kindOf, kind)
	}
	jobs = append(jobs, Scoring{Assignment: jobs[0].Assignment, Overlay: overlay})
	kindOf = append(kindOf, "overlay")
	for i, w := range inputs {
		got, err := w.Score(f, week, jobs, 0)
		if err != nil {
			t.Fatal(err)
		}
		for j, job := range jobs {
			for u := range raw {
				want, err := core.ScorePoint(u, raw[u], job.Overlay, job.Assignment.Thresholds[u])
				if err != nil {
					t.Fatal(err)
				}
				pt := got[j].Points[u]
				if !reflect.DeepEqual(pt, want) || math.Float64bits(pt.FP) != math.Float64bits(want.FP) ||
					math.Float64bits(pt.FN) != math.Float64bits(want.FN) {
					t.Fatalf("%s, threshold at %s: user %d point %+v != window walk %+v", names[i], kindOf[j], u, pt, want)
				}
			}
		}
	}
}

// TestAssignmentsShareOneFold pins the shared group fold: every
// assignment is DeepEqual to core.Configure's whether percentile or
// utility configures first on a (feature, week, grouping) or both run
// concurrently, on heap, mapped and bounded workspaces.
func TestAssignmentsShareOneFold(t *testing.T) {
	const users = 29
	f, week := features.TCP, 0
	names, inputs := mappedTriple(t, users, 17, 6)
	sweep := inputs[0].Sweep(f, week, 12)
	dists := inputs[0].Dists(f, week)
	groupings := []core.Grouping{core.Homogeneous{}, core.FullDiversity{}, core.PartialDiversity{NumGroups: 8}}
	heuristics := []core.Heuristic{core.Percentile{Q: 0.99}, core.UtilityOptimal{W: 0.4}}
	want := map[string]*core.Assignment{}
	for _, g := range groupings {
		for _, h := range heuristics {
			pol := core.Policy{Heuristic: h, Grouping: g}
			asn, err := core.Configure(dists, pol, sweep)
			if err != nil {
				t.Fatal(err)
			}
			want[pol.Name()] = asn
		}
	}
	check := func(name, order string, w *Workspace, pol core.Policy) {
		t.Helper()
		asn, err := w.Assignment(f, week, pol, sweep, "sp12")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(asn, want[pol.Name()]) {
			t.Fatalf("%s, %s: %s diverges from core.Configure", name, order, pol.Name())
		}
	}
	for i := range inputs {
		for _, order := range []string{"percentile first", "utility first", "concurrent"} {
			// A fresh workspace over the same columns per order, so no
			// memo carries over from the previous one.
			w := freshMemo(inputs[i])
			for _, g := range groupings {
				pols := []core.Policy{{Heuristic: heuristics[0], Grouping: g}, {Heuristic: heuristics[1], Grouping: g}}
				switch order {
				case "utility first":
					pols[0], pols[1] = pols[1], pols[0]
					fallthrough
				case "percentile first":
					for _, pol := range pols {
						check(names[i], order, w, pol)
					}
				case "concurrent":
					var wg sync.WaitGroup
					for _, pol := range pols {
						wg.Add(1)
						go func(pol core.Policy) {
							defer wg.Done()
							if _, err := w.Assignment(f, week, pol, sweep, "sp12"); err != nil {
								t.Error(err)
							}
						}(pol)
					}
					wg.Wait()
					for _, pol := range pols {
						check(names[i], order, w, pol)
					}
				}
			}
		}
	}
}

// TestSecondHeuristicFoldsNothing pins that a second heuristic on the
// same (feature, week, grouping) reads the first one's fold: on a
// bounded workspace a homogeneous MeanSigma configure after the
// percentile one runs no shard pass, so it allocates a small fraction
// of what the first configure — fold pass included — allocated.
func TestSecondHeuristicFoldsNothing(t *testing.T) {
	const users, shard = 64, 8
	pop, key := popAndKey(t, users, 2, 29, 15*time.Minute)
	dir := t.TempDir()
	whole, err := MaterializeSharded(context.Background(), dir, key, 0, func(u int, rows [][features.NumFeatures]float64) {
		pop.Users[u].FillSeries(rows)
	})
	if err != nil {
		t.Fatal(err)
	}
	whole.Close()
	w := loadArmed(t, dir, key, shard)
	f, week := features.UDP, 0
	if _, err := w.TailStats(f, week, 0.99); err != nil {
		t.Fatal(err)
	}
	allocated := func(h core.Heuristic) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := w.Assignment(f, week, core.Policy{Heuristic: h, Grouping: core.Homogeneous{}}, nil, ""); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first := allocated(core.Percentile{Q: 0.99})
	second := allocated(core.MeanSigma{K: 3})
	if second*8 >= first {
		t.Fatalf("second heuristic allocated %d bytes, the first (with the fold) %d: want under 1/8", second, first)
	}
}

// freshMemo returns a workspace serving w's columns (its blocks are
// shared, already built or lazily built alike) with an empty memo, so
// every memoized artifact is computed again.
func freshMemo(w *Workspace) *Workspace {
	return &Workspace{
		matrices:    w.matrices,
		users:       w.users,
		weeks:       w.weeks,
		binsPerWeek: w.binsPerWeek,
		binWidth:    w.binWidth,
		blocks:      w.blocks,
		blockOnce:   w.blockOnce,
		snap:        w.snap,
		userBase:    w.userBase,
		streamShard: w.streamShard,
		parent:      w.parent,
		parentLo:    w.parentLo,
	}
}
