package analysis

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

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
