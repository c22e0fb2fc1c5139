package remotework

import (
	"bytes"
	"context"
	"errors"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/buildctl"
	"repro/internal/features"
	"repro/internal/netsim"
	"repro/internal/snapshot"
	"repro/internal/trace"
	"repro/internal/wire"
)

// testPop mirrors the buildctl convergence suite's population: small
// enough to build in milliseconds, big enough to cut into ranges.
func testPop(t *testing.T, users int) (*trace.Population, snapshot.Key) {
	t.Helper()
	pop := trace.MustPopulation(trace.Config{Users: users, Weeks: 1, Seed: 7, BinWidth: 6 * time.Hour})
	key, err := snapshot.KeyFor(pop.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pop, key
}

// wantBytes is the ground truth every remote run must reproduce: a
// clean one-range local build's snapshot and manifest bytes.
func wantBytes(t *testing.T, pop *trace.Population, key snapshot.Key) (snap, man []byte) {
	t.Helper()
	dir := t.TempDir()
	ws, err := analysis.MaterializeSharded(context.Background(), dir, key, 0, func(u int, rows [][features.NumFeatures]float64) {
		pop.Users[u].FillSeries(rows)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err = os.ReadFile(key.Path(dir))
	if err != nil {
		t.Fatal(err)
	}
	man, err = os.ReadFile(key.ManifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	return snap, man
}

func assertSealedIdentical(t *testing.T, dir string, key snapshot.Key, want, wantMan []byte) {
	t.Helper()
	got, err := os.ReadFile(key.Path(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("remote-built snapshot bytes differ from single-process Save")
	}
	gotMan, err := os.ReadFile(key.ManifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotMan, wantMan) {
		t.Fatal("remote-built manifest bytes differ from single-process Save")
	}
}

// startDaemon serves a Daemon on a loopback TCP listener, returning
// its address and a stop function.
func startDaemon(t *testing.T, d *Daemon) (addr string, stop func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go d.Serve(l)
	return l.Addr().String(), func() { l.Close() }
}

func tcpHost(name, addr string) Host {
	return Host{Name: name, Dial: func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}}
}

// TestRemoteCleanTCP is the baseline: a coordinated build over two
// real TCP daemons seals snap+manifest byte-identical to the clean
// single-process Save, and the pool's summary accounts the streamed
// bytes.
func TestRemoteCleanTCP(t *testing.T) {
	pop, key := testPop(t, 36)
	want, wantMan := wantBytes(t, pop, key)
	dir := t.TempDir()

	addrA, stopA := startDaemon(t, &Daemon{Dir: t.TempDir()})
	defer stopA()
	addrB, stopB := startDaemon(t, &Daemon{Dir: t.TempDir()})
	defer stopB()

	pool := &Pool{
		Dir: dir, Key: key, Cfg: pop.Cfg,
		Hosts:       []Host{tcpHost("a", addrA), tcpHost("b", addrB)},
		ChunkBytes:  4096,
		BaseWeights: pop.CostWeights(),
	}
	// HedgeFactor < 0 disables hedging: the clean baseline pins exact
	// byte accounting, which duplicate dispatches would blur.
	st, err := buildctl.Build(context.Background(), buildctl.Options{
		Dir: dir, Key: key, Worker: pool,
		Parallel: 4, Ranges: 4, HedgeFactor: -1,
		WeightsFn: pool.WeightsFn,
	})
	if err != nil {
		t.Fatalf("remote build: %v (stats %+v)", err, st)
	}
	assertSealedIdentical(t, dir, key, want, wantMan)

	sum := pool.Summary()
	if sum.BytesStreamed != sum.BytesCommitted || sum.BytesRestreamed != 0 {
		t.Fatalf("clean build streamed %d, committed %d, restreamed %d",
			sum.BytesStreamed, sum.BytesCommitted, sum.BytesRestreamed)
	}
	if w := pool.WeightsFn(); len(w) != key.Users {
		t.Fatalf("WeightsFn after build returned %d weights, want %d", len(w), key.Users)
	}
}

// killConn wraps a TCP conn so the test can sever a host's transfers
// after a byte budget — a daemon killed mid-stream, as the client
// sees it.
type killConn struct {
	net.Conn
	budget *atomic.Int64 // read bytes remaining before the kill
	killed func()
}

func (c *killConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.budget.Add(-int64(n)) < 0 {
		c.killed()
		c.Conn.Close()
		return 0, errors.New("killed mid-stream")
	}
	return n, err
}

// TestRemoteKillMidStreamTCP is the acceptance pin for resume over
// real TCP: host A dies mid-stream (conn severed, daemon gone for
// good), the pool fails over to host B, and — because parts are
// deterministic and the receiver survives the host switch — B streams
// strictly fewer bytes than the full part: only the missing tail.
func TestRemoteKillMidStreamTCP(t *testing.T) {
	pop, key := testPop(t, 24)
	want, wantMan := wantBytes(t, pop, key)
	dir := t.TempDir()

	addrA, stopA := startDaemon(t, &Daemon{Dir: t.TempDir()})
	addrB, stopB := startDaemon(t, &Daemon{Dir: t.TempDir()})
	defer stopB()

	// Host A serves ~20 KB of frames, then every conn dies and future
	// dials are refused — the kill -9 shape.
	var budget atomic.Int64
	budget.Store(20 << 10)
	var dead atomic.Bool
	hostA := Host{Name: "a", Dial: func(ctx context.Context) (net.Conn, error) {
		if dead.Load() {
			return nil, errors.New("connection refused (daemon dead)")
		}
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", addrA)
		if err != nil {
			return nil, err
		}
		return &killConn{Conn: conn, budget: &budget, killed: func() {
			if dead.CompareAndSwap(false, true) {
				stopA()
			}
		}}, nil
	}}

	pool := &Pool{
		Dir: dir, Key: key, Cfg: pop.Cfg,
		Hosts:      []Host{hostA, tcpHost("b", addrB)},
		ChunkBytes: 2048, Reconnects: 6,
		Retry: wire.Backoff{Base: 2 * time.Millisecond, Max: 20 * time.Millisecond},
	}
	// One range: the whole population is a single part, so the byte
	// accounting below is exact.
	st, err := buildctl.Build(context.Background(), buildctl.Options{
		Dir: dir, Key: key, Worker: pool,
		Parallel: 1, Ranges: 1,
		MaxAttempts: 6, Backoff: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("remote build with killed daemon: %v (stats %+v)", err, st)
	}
	assertSealedIdentical(t, dir, key, want, wantMan)
	if !dead.Load() {
		t.Fatal("host A was never killed; the test exercised nothing")
	}

	sum := pool.Summary()
	partBytes := sum.BytesCommitted
	var a, b HostSummary
	for _, h := range sum.Hosts {
		switch h.Host {
		case "a":
			a = h
		case "b":
			b = h
		}
	}
	if a.BytesStreamed == 0 {
		t.Fatalf("host A streamed nothing before dying (summary %+v)", sum)
	}
	if b.BytesStreamed >= partBytes {
		t.Fatalf("failover re-streamed the whole part: host B streamed %d of a %d-byte part",
			b.BytesStreamed, partBytes)
	}
	if b.BytesStreamed == 0 {
		t.Fatalf("host B streamed nothing; who finished the part? (summary %+v)", sum)
	}
	if sum.BytesRestreamed != 0 {
		t.Fatalf("resume wasted %d re-streamed bytes, want 0 (summary %+v)", sum.BytesRestreamed, sum)
	}
	if a.Failures == 0 {
		t.Fatalf("host A's death was never recorded (summary %+v)", sum)
	}
}

// TestRemoteHeartbeatLossFailsFast pins the hung-host path: a host
// that accepts the build request and then goes silent is declared
// hung after the heartbeat window — seconds, not the attempt deadline
// — and the miss is visible in the health summary.
func TestRemoteHeartbeatLossFailsFast(t *testing.T) {
	pop, key := testPop(t, 8)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// A hung daemon: accepts, reads the request, never answers.
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				buf := make([]byte, 1<<16)
				for {
					if _, err := conn.Read(buf); err != nil {
						conn.Close()
						return
					}
				}
			}()
		}
	}()

	pool := &Pool{
		Dir: t.TempDir(), Key: key, Cfg: pop.Cfg,
		Hosts:          []Host{tcpHost("hung", l.Addr().String())},
		HeartbeatEvery: 20 * time.Millisecond, HeartbeatMisses: 3,
		Reconnects: 1, QuarantineAfter: 2,
		Retry: wire.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond},
	}
	start := time.Now()
	err = pool.Build(context.Background(), buildctl.Task{Lo: 0, Hi: key.Users})
	if err == nil {
		t.Fatal("build against a hung host succeeded")
	}
	if !errors.Is(err, errHeartbeatLost) {
		t.Fatalf("err = %v, want heartbeat loss", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hung host took %v to fail — that is a deadline, not a heartbeat", elapsed)
	}
	sum := pool.Summary()
	if len(sum.Hosts) != 1 || sum.Hosts[0].HeartbeatMisses == 0 {
		t.Fatalf("heartbeat misses not recorded (summary %+v)", sum)
	}
	if sum.Hosts[0].Quarantines == 0 {
		t.Fatalf("repeat offender never quarantined (summary %+v)", sum)
	}
}

// TestRemoteQuarantineReadmits pins the probation state machine: a
// host that fails repeatedly is quarantined (no dials while the
// window holds), then re-admitted and used again after it passes.
func TestRemoteQuarantineReadmits(t *testing.T) {
	pop, key := testPop(t, 8)
	addrB, stopB := startDaemon(t, &Daemon{Dir: t.TempDir()})
	defer stopB()

	var aDials atomic.Int64
	var aHealthy atomic.Bool
	addrA, stopA := startDaemon(t, &Daemon{Dir: t.TempDir()})
	defer stopA()
	hostA := Host{Name: "a", Dial: func(ctx context.Context) (net.Conn, error) {
		aDials.Add(1)
		if !aHealthy.Load() {
			return nil, errors.New("connection refused")
		}
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addrA)
	}}

	pool := &Pool{
		Dir: t.TempDir(), Key: key, Cfg: pop.Cfg,
		Hosts:           []Host{hostA, tcpHost("b", addrB)},
		QuarantineAfter: 1, Probation: 300 * time.Millisecond,
		Reconnects: 3,
		Retry:      wire.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond},
	}
	// One build while A is down: A fails its session and lands in
	// quarantine; B carries the range.
	if err := pool.Build(context.Background(), buildctl.Task{Lo: 0, Hi: key.Users}); err != nil {
		t.Fatalf("build with host A down: %v", err)
	}
	os.Remove(key.PartPath(pool.Dir, 0, key.Users))
	sum := pool.Summary()
	if sum.Hosts[0].Quarantines == 0 {
		t.Fatalf("host A never quarantined (summary %+v)", sum)
	}
	dialsAtQuarantine := aDials.Load()

	// While quarantined, A gets no traffic.
	if err := pool.Build(context.Background(), buildctl.Task{Lo: 0, Hi: key.Users}); err != nil {
		t.Fatalf("build during quarantine: %v", err)
	}
	os.Remove(key.PartPath(pool.Dir, 0, key.Users))
	if got := aDials.Load(); got != dialsAtQuarantine {
		t.Fatalf("quarantined host was dialed (%d → %d dials)", dialsAtQuarantine, got)
	}

	// After probation, a recovered A is re-admitted.
	aHealthy.Store(true)
	time.Sleep(pool.Probation + 50*time.Millisecond)
	for i := 0; i < 4 && aDials.Load() == dialsAtQuarantine; i++ {
		if err := pool.Build(context.Background(), buildctl.Task{Lo: 0, Hi: key.Users, Attempt: i}); err != nil {
			t.Fatalf("build after probation: %v", err)
		}
		os.Remove(key.PartPath(pool.Dir, 0, key.Users))
	}
	if aDials.Load() == dialsAtQuarantine {
		t.Fatal("host A never re-admitted after probation")
	}
}

// fabricHosts wires n daemons into a FaultNetwork: daemon i listens
// at name "wi" on the underlying MemNetwork, and the returned hosts
// dial it as netsim host index i — so partitions and crash windows
// can take down exactly one daemon's connectivity.
func fabricHosts(t *testing.T, fn *netsim.FaultNetwork, daemons []*Daemon) []Host {
	t.Helper()
	hosts := make([]Host, len(daemons))
	for i, d := range daemons {
		name := string(rune('a' + i))
		l, err := fn.Listen(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go d.Serve(l)
		idx := i
		hosts[i] = Host{Name: name, Dial: func(ctx context.Context) (net.Conn, error) {
			return fn.DialContext(ctx, idx, name)
		}}
	}
	return hosts
}

// TestRemoteFaultFabricConvergence is the transport soak: a two-
// daemon build over netsim's fault fabric under seeded write drops,
// mid-stream resets, a partition long enough to span heartbeat
// windows, and a crash window that takes one daemon out entirely —
// and the merged store must still be byte-identical to the clean
// single-process Save.
func TestRemoteFaultFabricConvergence(t *testing.T) {
	pop, key := testPop(t, 36)
	want, wantMan := wantBytes(t, pop, key)

	plans := map[string]netsim.FaultPlan{
		"resets30":  {Seed: 3, DropProb: 0.05, ResetProb: 0.30},
		"partition": {Seed: 5, ResetProb: 0.10, Partitions: []netsim.Partition{{Hosts: []int{1}, From: 2, To: 8}}},
		"host-crash": {
			Seed: 9, DropProb: 0.05, ResetProb: 0.15,
			Crashes: []netsim.CrashWindow{{Host: 0, From: 1, To: 12}},
		},
	}
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			mem := netsim.NewMemNetwork()
			start := time.Now()
			// Logical time advances with the wall clock so offline
			// windows open and close while the build runs.
			fn, err := netsim.NewFaultNetwork(mem, plan, netsim.TickerFunc(func() int {
				return int(time.Since(start) / (50 * time.Millisecond))
			}))
			if err != nil {
				t.Fatal(err)
			}
			daemons := []*Daemon{{Dir: t.TempDir()}, {Dir: t.TempDir()}}
			pool := &Pool{
				Dir: dir, Key: key, Cfg: pop.Cfg,
				Hosts:      fabricHosts(t, fn, daemons),
				ChunkBytes: 2048,
				// Short windows keep the soak fast: a partitioned
				// host fails in tens of milliseconds and the build
				// routes around it.
				HeartbeatEvery: 25 * time.Millisecond, HeartbeatMisses: 3,
				DialTimeout: time.Second, RPCTimeout: 2 * time.Second,
				Reconnects: 8, QuarantineAfter: 3, Probation: 100 * time.Millisecond,
				Retry: wire.Backoff{Base: 2 * time.Millisecond, Max: 30 * time.Millisecond},
				Seed:  plan.Seed, BaseWeights: pop.CostWeights(),
			}
			st, err := buildctl.Build(context.Background(), buildctl.Options{
				Dir: dir, Key: key, Worker: pool,
				Parallel: 2, Ranges: 4,
				MaxAttempts: 10, Backoff: 5 * time.Millisecond,
				AttemptTimeout: 30 * time.Second,
				HedgeAfter:     300 * time.Millisecond, HedgeFactor: 4,
				WeightsFn: pool.WeightsFn,
				Seed:      plan.Seed,
			})
			if err != nil {
				t.Fatalf("fabric build under %s: %v (stats %+v, summary %+v)", name, err, st, pool.Summary())
			}
			assertSealedIdentical(t, dir, key, want, wantMan)
			sum := pool.Summary()
			if sum.BytesStreamed < sum.BytesCommitted {
				t.Fatalf("streamed %d < committed %d: accounting broken", sum.BytesStreamed, sum.BytesCommitted)
			}
		})
	}
}

// TestRemoteFabricResumeStreamsTail asserts the resume byte bound on
// the fabric: with aggressive mid-stream resets and one range, total
// streamed bytes stay below two full parts (a restart-from-zero
// transport would stream the prefix again on every reset), and the
// part converges byte-identical.
func TestRemoteFabricResumeStreamsTail(t *testing.T) {
	pop, key := testPop(t, 24)
	want, wantMan := wantBytes(t, pop, key)
	dir := t.TempDir()
	mem := netsim.NewMemNetwork()
	fn, err := netsim.NewFaultNetwork(mem, netsim.FaultPlan{Seed: 17, ResetProb: 0.35}, nil)
	if err != nil {
		t.Fatal(err)
	}
	daemons := []*Daemon{{Dir: t.TempDir()}}
	pool := &Pool{
		Dir: dir, Key: key, Cfg: pop.Cfg,
		Hosts:      fabricHosts(t, fn, daemons),
		ChunkBytes: 8192,
		Reconnects: 200, QuarantineAfter: 100000,
		Retry: wire.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond},
		Seed:  17,
	}
	if err := pool.Build(context.Background(), buildctl.Task{Lo: 0, Hi: key.Users}); err != nil {
		t.Fatalf("resumed build: %v (summary %+v)", err, pool.Summary())
	}
	sum := pool.Summary()
	if sum.BytesRestreamed != 0 {
		t.Fatalf("resume re-streamed %d bytes; every session should continue at the offset (summary %+v)",
			sum.BytesRestreamed, sum)
	}
	if sum.Hosts[0].Failures == 0 {
		t.Fatal("no session ever failed; the reset plan exercised nothing")
	}
	if _, err := snapshot.VerifyPart(dir, key, 0, key.Users); err != nil {
		t.Fatalf("resumed part failed verification: %v", err)
	}
	if _, err := snapshot.MergeShards(dir, key); err != nil {
		t.Fatal(err)
	}
	assertSealedIdentical(t, dir, key, want, wantMan)
}

// TestRemoteWeightsFeedback pins the throughput→weights loop: after
// attempts whose observed per-user cost differs across the
// population, WeightsFn returns heavier weights for the slower users,
// so the coordinator's next cut shifts boundaries.
func TestRemoteWeightsFeedback(t *testing.T) {
	pop, key := testPop(t, 20)
	pool := &Pool{Dir: t.TempDir(), Key: key, Cfg: pop.Cfg, Hosts: []Host{{Name: "x"}}}
	pool.init()
	h := pool.hs[0]
	// Users [0, 10) built fast, [10, 20) slow.
	h.inflight = 2
	pool.recordSuccess(h, buildctl.Task{Lo: 0, Hi: 10}, 10*time.Millisecond, 1000)
	pool.recordSuccess(h, buildctl.Task{Lo: 10, Hi: 20}, 100*time.Millisecond, 1000)
	w := pool.WeightsFn()
	if len(w) != 20 {
		t.Fatalf("WeightsFn returned %d weights, want 20", len(w))
	}
	if !(w[15] > 5*w[5]) {
		t.Fatalf("slow users not weighted heavier: fast=%v slow=%v", w[5], w[15])
	}
	cuts := snapshot.CutRanges(w, 2)
	if len(cuts) != 2 || cuts[0][1] <= 10 {
		t.Fatalf("weighted cut %v did not widen the fast half (want boundary > 10)", cuts)
	}
	// The summary carries the final EWMA share.
	sum := pool.Summary()
	if sum.Hosts[0].ThroughputBps <= 0 || sum.Hosts[0].Weight != 1 {
		t.Fatalf("summary EWMA off: %+v", sum.Hosts[0])
	}
}

// TestRemoteDaemonRejectsBadRequest pins the fatal path end to end: a
// request the daemon can never build (invalid range) aborts the
// coordinator attempt with a Fatal error instead of burning retries.
func TestRemoteDaemonRejectsBadRequest(t *testing.T) {
	pop, key := testPop(t, 8)
	addr, stop := startDaemon(t, &Daemon{Dir: t.TempDir()})
	defer stop()
	pool := &Pool{
		Dir: t.TempDir(), Key: key, Cfg: pop.Cfg,
		Hosts: []Host{tcpHost("a", addr)},
	}
	err := pool.Build(context.Background(), buildctl.Task{Lo: 5, Hi: 99})
	if err == nil || !buildctl.IsFatal(err) {
		t.Fatalf("err = %v, want fatal abort on invalid range", err)
	}
	if !strings.Contains(err.Error(), "invalid") {
		t.Fatalf("err = %v, want the daemon's message", err)
	}
}
