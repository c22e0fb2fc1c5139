package analysis

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// BenchmarkColdBuild measures a cold store build end to end — every
// part sealed and verified, the splice merge, and the verified map —
// through LoadOrMaterialize, with one part builder and with
// GOMAXPROCS of them, at 128 and 1000 users × 2 weeks. Each iteration
// builds into a fresh directory on the same disk as the benchmark's
// temp dir; generation dominates, the rest is the store's write path.
func BenchmarkColdBuild(b *testing.B) {
	for _, users := range []int{128, 1000} {
		pop := trace.MustPopulation(trace.Config{Users: users, Weeks: 2, Seed: 1})
		key, err := snapshot.KeyFor(pop.Cfg)
		if err != nil {
			b.Fatal(err)
		}
		gen := func(u int, rows [][features.NumFeatures]float64) { pop.Users[u].FillSeries(rows) }
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("users=%d/workers=%d", users, workers), func(b *testing.B) {
				root := b.TempDir()
				for i := 0; i < b.N; i++ {
					dir := filepath.Join(root, fmt.Sprint(i))
					ws, warm, err := LoadOrMaterialize(context.Background(), dir, key, 0, workers, pop.CostWeights(), nil, gen)
					if err != nil || warm {
						b.Fatalf("cold build: warm=%v err=%v", warm, err)
					}
					b.StopTimer()
					if err := ws.Close(); err != nil {
						b.Fatal(err)
					}
					if err := os.RemoveAll(dir); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
			})
		}
	}
}

// BenchmarkStreamPass times one bounded pass (128-user shards) over
// a sealed 1000-user × 2-week store that reads the TCP training
// column of every user, the pass shape Sweep, TailStats and Score
// share: each shard maps its columns in and the pass drops the
// shard's pages when the shard is done, so every op faults the store
// afresh. The store's rows are cheap synthetic counts; generation is
// outside the timed region. -short runs it over 128 users.
func BenchmarkStreamPass(b *testing.B) {
	users := 1000
	if testing.Short() {
		users = 128
	}
	key := snapshot.Key{Seed: 1, Users: users, Weeks: 2, BinWidth: 15 * time.Minute}
	gen := func(u int, rows [][features.NumFeatures]float64) {
		for i := range rows {
			for f := range rows[i] {
				rows[i][f] = float64((u*7919 + i*104729 + f*31) % 1024)
			}
		}
	}
	ws, _, err := LoadOrMaterialize(context.Background(), b.TempDir(), key, 0, 0, nil, nil, gen)
	if err != nil {
		b.Fatal(err)
	}
	defer ws.Close()
	ws.SetStreamShard(128)
	sums := make([]float64, users) // one column sum per user; shards write disjoint ranges
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ws.StreamShards(0, func(view *Workspace, lo, _ int) error {
			for u, col := range view.Sorted(features.TCP, 0) {
				sum := 0.0
				for _, v := range col {
					sum += v
				}
				sums[lo+u] = sum
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(users)*float64(b.N)/b.Elapsed().Seconds(), "users/s")
}

var (
	bench1000Once sync.Once
	bench1000     *Workspace
)

// benchWorkspace1000 returns the shared heap workspace of the
// paper-scale population the configure and score benchmarks run on:
// 1000 users × 2 weeks of 15-minute windows, seed 1, every record
// filled once.
func benchWorkspace1000() *Workspace {
	bench1000Once.Do(func() {
		pop := trace.MustPopulation(trace.Config{Users: 1000, Weeks: 2, Seed: 1})
		key, err := snapshot.KeyFor(pop.Cfg)
		if err != nil {
			panic(err)
		}
		bench1000, err = Generate(key, func(u int, rows [][features.NumFeatures]float64) {
			pop.Users[u].FillSeries(rows)
		})
		if err != nil {
			panic(err)
		}
	})
	return bench1000
}

// benchGroupings are the paper's three grouping policies.
var benchGroupings = []core.Grouping{core.Homogeneous{}, core.FullDiversity{}, core.PartialDiversity{NumGroups: 8}}

// BenchmarkAssignments1000 times the threshold configurations Fig 3,
// Table 2/3 and Fig 4 build on the TCP training week: percentile(99)
// and utility(w=0.4) under each of the three groupings, over a 24-point
// attack sweep. Each op starts from an empty memo over the already
// built columns, so it times the training p99s, the group folds and
// the six heuristic steps, not column extraction.
func BenchmarkAssignments1000(b *testing.B) {
	ws := benchWorkspace1000()
	f, week := features.TCP, 0
	sweep := ws.Sweep(f, week, 24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := freshMemo(ws)
		for _, h := range []core.Heuristic{core.Percentile{Q: 0.99}, core.UtilityOptimal{W: 0.4}} {
			for _, g := range benchGroupings {
				if _, err := w.Assignment(f, week, core.Policy{Heuristic: h, Grouping: g}, sweep, "sp24"); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkScore1000 times one Score pass over the TCP test week with
// the three percentile(99) assignments as jobs: benign (no overlay,
// Table 3's and Fig 5's clean jobs) and under the every-4th-window
// sweep overlay (Fig 3's jobs).
func BenchmarkScore1000(b *testing.B) {
	ws := benchWorkspace1000()
	f, trainWeek, testWeek := features.TCP, 0, 1
	sweep := ws.Sweep(f, trainWeek, 24)
	overlay := make([]float64, ws.BinsPerWeek())
	k := 0
	for bin := 3; bin < len(overlay); bin += 4 {
		overlay[bin] = sweep[k%len(sweep)]
		k++
	}
	var asns []*core.Assignment
	for _, g := range benchGroupings {
		asn, err := ws.Assignment(f, trainWeek, core.Policy{Heuristic: core.Percentile{Q: 0.99}, Grouping: g}, nil, "")
		if err != nil {
			b.Fatal(err)
		}
		asns = append(asns, asn)
	}
	ws.Sorted(f, testWeek)
	for _, bc := range []struct {
		name    string
		overlay []float64
	}{{"benign", nil}, {"overlay", overlay}} {
		jobs := make([]Scoring, len(asns))
		for i, asn := range asns {
			jobs[i] = Scoring{Assignment: asn, Overlay: bc.overlay}
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ws.Score(f, testWeek, jobs, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
