package analysis

import (
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/par"
)

// TestOverlayScoreMatchesEvaluate pins Score's attacked-window walk to
// core.EvaluatePolicy over the raw test columns: the same operating
// points, bits included, under an all-zero overlay, every 4th window,
// every window (Storm's shape) and a single window, at thresholds equal
// to a sample, to an attacked window's g+a, between samples and at
// ±Inf, on heap, mapped and bounded workspaces. Jobs sharing one
// overlay slice share its walk; a copy of an overlay is scored as a
// separate overlay with the same values.
func TestOverlayScoreMatchesEvaluate(t *testing.T) {
	const users = 21
	f, week := features.TCP, 1
	names, inputs := mappedTriple(t, users, 47, 4)
	ref := inputs[0]
	raw, sorted := ref.Raw(f, week), ref.Sorted(f, week)
	bins := ref.BinsPerWeek()
	overlays := map[string][]float64{
		"all-zero":     make([]float64, bins),
		"every 4th":    make([]float64, bins),
		"every window": make([]float64, bins),
		"one window":   make([]float64, bins),
	}
	for b := range bins {
		if b%4 == 3 {
			overlays["every 4th"][b] = float64(1 + b%9)
		}
		overlays["every window"][b] = 0.5 + float64(b%5)
	}
	overlays["one window"][bins/2] = 3
	overlays["every 4th copy"] = append([]float64(nil), overlays["every 4th"]...)
	thresholds := map[string]func(u int, overlay []float64) float64{
		"a sample": func(u int, _ []float64) float64 { return sorted[u][len(sorted[u])*3/4] },
		"an attacked g+a": func(u int, overlay []float64) float64 {
			for b, a := range overlay {
				if a > 0 {
					return raw[u][b] + a
				}
			}
			return sorted[u][0]
		},
		"between samples": func(u int, _ []float64) float64 {
			col := sorted[u]
			for i := len(col) - 1; i > 0; i-- {
				if col[i] != col[i-1] {
					return (col[i] + col[i-1]) / 2
				}
			}
			return col[0] + 0.5
		},
		"+Inf": func(int, []float64) float64 { return math.Inf(1) },
		"-Inf": func(int, []float64) float64 { return math.Inf(-1) },
	}
	var jobs []Scoring
	var labels []string
	for oName, overlay := range overlays {
		for tName, thrOf := range thresholds {
			asn := &core.Assignment{Thresholds: make([]float64, users)}
			for u := range asn.Thresholds {
				asn.Thresholds[u] = thrOf(u, overlay)
			}
			jobs = append(jobs, Scoring{Assignment: asn, Overlay: overlay})
			labels = append(labels, oName+", threshold at "+tName)
		}
	}
	// Two jobs on one overlay slice with one assignment: the shared walk
	// must fill both.
	jobs = append(jobs, jobs[0], Scoring{Assignment: jobs[0].Assignment})
	labels = append(labels, labels[0]+" (again)", "benign")
	want := make([]*core.EvalResult, len(jobs))
	for j, job := range jobs {
		var attack [][]float64
		if job.Overlay != nil {
			attack = make([][]float64, users)
			for u := range attack {
				attack[u] = job.Overlay
			}
		}
		res, err := core.EvaluatePolicy(core.EvalInput{Test: raw, Attack: attack, Assignment: job.Assignment})
		if err != nil {
			t.Fatal(err)
		}
		want[j] = res
	}
	for i, w := range inputs {
		got, err := w.Score(f, week, jobs, 0)
		if err != nil {
			t.Fatal(err)
		}
		for j := range jobs {
			for u := range users {
				pt, wp := got[j].Points[u], want[j].Points[u]
				if !reflect.DeepEqual(pt, wp) || math.Float64bits(pt.FP) != math.Float64bits(wp.FP) ||
					math.Float64bits(pt.FN) != math.Float64bits(wp.FN) {
					t.Fatalf("%s, %s: user %d point %+v != EvaluatePolicy %+v", names[i], labels[j], u, pt, wp)
				}
			}
		}
	}
}

// TestUnboundedShardsBalance pins StreamShards' cuts: an unbounded
// workspace hands out min(users, 4·workers) shards of near-equal size
// that cover every user once, and a bounded one keeps its armed shard
// size whatever the worker count.
func TestUnboundedShardsBalance(t *testing.T) {
	const users, armed = 23, 5
	names, inputs := mappedTriple(t, users, 47, armed)
	for i, w := range inputs {
		for _, workers := range []int{1, 2, 3, 8, 0} {
			var mu sync.Mutex
			var shards [][2]int
			err := w.StreamShards(workers, func(view *Workspace, lo, hi int) error {
				mu.Lock()
				defer mu.Unlock()
				shards = append(shards, [2]int{lo, hi})
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			sort.Slice(shards, func(a, b int) bool { return shards[a][0] < shards[b][0] })
			bounded := names[i] == "bounded"
			wantN := min(users, 4*par.Workers(workers, users))
			if bounded {
				wantN = (users + armed - 1) / armed
			}
			if len(shards) != wantN {
				t.Fatalf("%s, %d workers: %d shards, want %d", names[i], workers, len(shards), wantN)
			}
			next := 0
			for _, sh := range shards {
				size := sh[1] - sh[0]
				ok := size >= users/wantN && size <= (users+wantN-1)/wantN
				if bounded {
					ok = size == min(armed, users-sh[0])
				}
				if sh[0] != next || !ok {
					t.Fatalf("%s, %d workers: shards %v do not tile [0, %d) evenly", names[i], workers, shards, users)
				}
				next = sh[1]
			}
			if next != users {
				t.Fatalf("%s, %d workers: shards %v end at %d, want %d", names[i], workers, shards, next, users)
			}
		}
	}
}
