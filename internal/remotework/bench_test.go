package remotework

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/buildctl"
	"repro/internal/netsim"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// BenchmarkRemoteFetch times one remote fetch session end to end: a
// daemon over netsim.MemNetwork serves an already sealed part (its
// scratch-store cache hit: a verify probe, then the whole-file CRC),
// and the pool streams it in 256 KiB chunks into a PartReceiver and
// commits it. The part covers 48 users × 1 week at 5-minute bins.
// Reports the part's MiB per second.
func BenchmarkRemoteFetch(b *testing.B) {
	pop := trace.MustPopulation(trace.Config{Users: 48, Weeks: 1, Seed: 7, BinWidth: 5 * time.Minute})
	key, err := snapshot.KeyFor(pop.Cfg)
	if err != nil {
		b.Fatal(err)
	}
	network := netsim.NewMemNetwork()
	l, err := network.Listen("d")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	go (&Daemon{Dir: b.TempDir()}).Serve(l)
	pool := &Pool{
		Dir: b.TempDir(), Key: key, Cfg: pop.Cfg,
		Hosts:      []Host{{Name: "d", Dial: func(context.Context) (net.Conn, error) { return network.Dial("d") }}},
		ChunkBytes: 256 << 10,
	}
	task := buildctl.Task{Lo: 0, Hi: key.Users}
	// The first session builds and seals the part on the daemon.
	if err := pool.Build(context.Background(), task); err != nil {
		b.Fatal(err)
	}
	size := pool.Summary().BytesCommitted
	b.ReportAllocs()
	for b.Loop() {
		if err := pool.Build(context.Background(), task); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(size)*float64(b.N)/(1<<20)/b.Elapsed().Seconds(), "MiB/s")
}
