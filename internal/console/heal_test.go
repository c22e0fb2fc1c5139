package console

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/netsim"
)

// The self-healing regression suite: the idempotency guards (upload
// epoch, alert-batch sequence) exercised frame by frame with a raw
// protocol client, and the reconnect storm exercised with real agents
// over a partitioned fault transport.

// rawDial opens a raw protocol connection and completes the hello
// handshake.
func rawDial(t *testing.T, network *netsim.MemNetwork, host uint32, resume bool) net.Conn {
	t.Helper()
	conn, err := network.Dial("console")
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteMsg(conn, MsgHello, Hello{HostID: host, Resume: resume, Proto: ProtoVersion}); err != nil {
		t.Fatal(err)
	}
	expectFrame(t, conn, MsgAck)
	return conn
}

// expectFrame reads one frame and fails unless it has the wanted type.
func expectFrame(t *testing.T, conn net.Conn, want MsgType) []byte {
	t.Helper()
	typ, body, err := ReadMsg(conn)
	if err != nil {
		t.Fatalf("reading %s: %v", want, err)
	}
	if typ != want {
		t.Fatalf("got %s frame, want %s", typ, want)
	}
	return body
}

// uploadAll uploads one distribution per feature at the given epoch
// and consumes the acks.
func uploadAll(t *testing.T, conn net.Conn, host uint32, epoch int, samples []float64) {
	t.Helper()
	for _, f := range features.All() {
		if err := WriteMsg(conn, MsgDistUpload, DistUpload{
			HostID: host, Feature: int(f), Samples: samples, Epoch: epoch,
		}); err != nil {
			t.Fatal(err)
		}
		expectFrame(t, conn, MsgAck)
	}
}

func memServer(t *testing.T, hosts int) (*Server, *netsim.MemNetwork) {
	t.Helper()
	srv, err := NewServer(ServerConfig{
		Policy:        policy99(core.FullDiversity{}),
		ExpectedHosts: hosts,
	})
	if err != nil {
		t.Fatal(err)
	}
	network := netsim.NewMemNetwork()
	ln, err := network.Listen("console")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	return srv, network
}

// TestUploadEpochGuard pins the reconnect-safety of uploads: a re-sent
// upload for an epoch the console has already configured is
// acknowledged and dropped (never wiping fleet state), an upload ahead
// of the console is rejected, and the next epoch's upload opens a new
// learning round.
func TestUploadEpochGuard(t *testing.T) {
	srv, network := memServer(t, 1)
	samples := make([]float64, 40)
	for i := range samples {
		samples[i] = float64(i + 1)
	}

	conn := rawDial(t, network, 1, false)
	defer conn.Close()
	uploadAll(t, conn, 1, 0, samples)
	var thr Thresholds
	if err := decode(MsgThresholds, expectFrame(t, conn, MsgThresholds), &thr); err != nil {
		t.Fatal(err)
	}
	if thr.Epoch != 0 || srv.Epoch() != 0 {
		t.Fatalf("first push epoch = %d (server %d), want 0", thr.Epoch, srv.Epoch())
	}

	// A reconnecting agent re-sends its epoch-0 upload: idempotent
	// ack-and-drop. If the console re-opened the epoch, a second
	// thresholds push would precede the next ack and fail the reads.
	uploadAll(t, conn, 1, 0, samples)
	if srv.Epoch() != 0 {
		t.Fatalf("stale re-upload moved the console to epoch %d", srv.Epoch())
	}

	// An upload for an epoch the console has not reached is a protocol
	// error (the server replies MsgError and drops the connection).
	if err := WriteMsg(conn, MsgDistUpload, DistUpload{
		HostID: 1, Feature: 0, Samples: samples, Epoch: 2,
	}); err != nil {
		t.Fatal(err)
	}
	expectFrame(t, conn, MsgError)
	_ = conn.Close()

	// The genuine next round: epoch-1 uploads open a new epoch and earn
	// a fresh push. A reconnect to a configured console is greeted with
	// the stored assignment first (the resume push).
	conn2 := rawDial(t, network, 1, true)
	defer conn2.Close()
	if err := decode(MsgThresholds, expectFrame(t, conn2, MsgThresholds), &thr); err != nil {
		t.Fatal(err)
	}
	if thr.Epoch != 0 {
		t.Fatalf("resume push epoch = %d, want the stored 0", thr.Epoch)
	}
	uploadAll(t, conn2, 1, 1, samples)
	if err := decode(MsgThresholds, expectFrame(t, conn2, MsgThresholds), &thr); err != nil {
		t.Fatal(err)
	}
	if thr.Epoch != 1 || srv.Epoch() != 1 {
		t.Fatalf("re-learned push epoch = %d (server %d), want 1", thr.Epoch, srv.Epoch())
	}
}

// TestAlertSeqDedup pins exactly-once alert accounting across
// re-sends and reconnects: a re-sent sequence is acknowledged but
// never re-tallied, sequence zero always counts, a resumed connection
// keeps the dedup watermark, and a fresh (non-resume) hello resets it.
func TestAlertSeqDedup(t *testing.T) {
	srv, network := memServer(t, 1)
	samples := []float64{1, 2, 3, 4, 5}
	alerts := func(n int) []Alert {
		out := make([]Alert, n)
		for i := range out {
			out[i] = Alert{Feature: 1, Bin: i, Value: 10, Threshold: 1}
		}
		return out
	}
	send := func(conn net.Conn, seq uint64, n int) {
		t.Helper()
		if err := WriteMsg(conn, MsgAlertBatch, AlertBatch{HostID: 1, Seq: seq, Alerts: alerts(n)}); err != nil {
			t.Fatal(err)
		}
		var ack Ack
		if err := decode(MsgAck, expectFrame(t, conn, MsgAck), &ack); err != nil {
			t.Fatal(err)
		}
		if ack.Seq != seq {
			t.Fatalf("ack echoes seq %d, want %d", ack.Seq, seq)
		}
	}
	count := func(want int, stage string) {
		t.Helper()
		if got := srv.AlertCount(1); got != want {
			t.Fatalf("%s: console tallied %d alerts, want %d", stage, got, want)
		}
	}

	conn := rawDial(t, network, 1, false)
	uploadAll(t, conn, 1, 0, samples)
	expectFrame(t, conn, MsgThresholds)

	send(conn, 1, 2)
	count(2, "first batch")
	send(conn, 1, 2) // ack lost in transit, batch re-sent verbatim
	count(2, "re-sent seq 1")
	send(conn, 0, 1) // unsequenced legacy batch: always counts
	count(3, "seq 0")
	send(conn, 2, 2)
	count(5, "seq 2")
	send(conn, 1, 2) // stale straggler
	count(5, "stale seq 1")
	_ = conn.Close()

	// Self-healing redial (Resume): the watermark survives, so the
	// spool's re-send of batch 2 is dropped while batch 3 counts.
	conn = rawDial(t, network, 1, true)
	expectFrame(t, conn, MsgThresholds) // configured console greets reconnects
	send(conn, 2, 2)
	count(5, "resumed re-send of seq 2")
	send(conn, 3, 1)
	count(6, "resumed seq 3")
	_ = conn.Close()

	// A restarted agent process (fresh hello) begins a new sequence
	// stream at 1; the old watermark must not eat it.
	conn = rawDial(t, network, 1, false)
	expectFrame(t, conn, MsgThresholds)
	send(conn, 1, 1)
	count(7, "fresh incarnation seq 1")
	_ = conn.Close()
}

// TestAlertBatchForeignHostRejected pins that a connection reports
// its own host's alerts only: a batch naming another host is refused
// with an error frame and credits nothing, so the named host's dedup
// watermark stays put and its real batches still count.
func TestAlertBatchForeignHostRejected(t *testing.T) {
	srv, network := memServer(t, 2)
	batch := func(seq uint64) AlertBatch {
		return AlertBatch{HostID: 2, Seq: seq, Alerts: []Alert{{Feature: 1, Bin: 3, Value: 10, Threshold: 1}}}
	}

	conn := rawDial(t, network, 1, false)
	defer conn.Close()
	if err := WriteMsg(conn, MsgAlertBatch, batch(1000)); err != nil {
		t.Fatal(err)
	}
	expectFrame(t, conn, MsgError)
	if got := srv.AlertCount(2); got != 0 {
		t.Fatalf("host 1's connection credited host 2 with %d alerts", got)
	}

	// Host 2 itself, resuming (so any watermark would survive), starts
	// its sequence at 1: the batch must count.
	conn2 := rawDial(t, network, 2, true)
	defer conn2.Close()
	if err := WriteMsg(conn2, MsgAlertBatch, batch(1)); err != nil {
		t.Fatal(err)
	}
	expectFrame(t, conn2, MsgAck)
	if got := srv.AlertCount(2); got != 1 {
		t.Fatalf("host 2's own seq-1 batch: tally %d, want 1", got)
	}
}

// TestReconnectStormExactlyOnce is the storm regression: a fleet of
// agents all severed by one partition window, all redialing the
// console at once when it heals — every spooled batch must arrive
// exactly once, and the console's connection table must not leak.
func TestReconnectStormExactlyOnce(t *testing.T) {
	const users = 8
	srv, network := memServer(t, users)
	var tick atomic.Int64
	fnet, err := netsim.NewFaultNetwork(network, netsim.FaultPlan{
		Seed:       9,
		Partitions: []netsim.Partition{{From: 1, To: 2}}, // all hosts
	}, netsim.TickerFunc(func() int { return int(tick.Load()) }))
	if err != nil {
		t.Fatal(err)
	}
	retry := RetryPolicy{
		MaxDials:     -1,
		MaxOpRetries: 16,
		Backoff:      100 * time.Microsecond,
		BackoffMax:   time.Millisecond,
		LinkWait:     5 * time.Millisecond,
		Seed:         1,
	}
	samples := make([]float64, 50)
	for i := range samples {
		samples[i] = float64(i + 1)
	}

	agents := make([]*Agent, users)
	for i := range agents {
		agents[i], err = Connect(AgentConfig{
			HostID: uint32(i),
			Dial:   fnet.Dialer(i, "console"),
			Retry:  retry,
		})
		if err != nil {
			t.Fatalf("host %d: %v", i, err)
		}
		defer agents[i].Close()
	}

	// Phases run in lockstep across all agents: the partition tick is
	// global state, so every agent must pass through each phase before
	// the clock moves.
	parallel := func(stage string, fn func(i int) error) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make([]error, users)
		for i := 0; i < users; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = fn(i)
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s: host %d: %v", stage, i, err)
			}
		}
	}

	parallel("upload", func(i int) error {
		for _, f := range features.All() {
			if err := agents[i].UploadDistribution(f, samples); err != nil {
				return err
			}
		}
		_, err := agents[i].WaitThresholds(20 * time.Second)
		return err
	})

	var hot [features.NumFeatures]float64
	for f := range hot {
		hot[f] = 1 << 20
	}
	sent := make([]int, users)
	parallel("observe", func(i int) error {
		for b := 0; b < 2; b++ {
			if err := agents[i].ObserveVector(b, hot); err != nil {
				return err
			}
		}
		sent[i] = agents[i].PendingAlerts()
		return nil
	})
	for i, n := range sent {
		if n == 0 {
			t.Fatalf("host %d has no pending alerts; the storm would carry nothing", i)
		}
	}

	tick.Store(1) // partition opens: every flush must fail and spool
	parallel("flush into partition", func(i int) error {
		if err := agents[i].Flush(); err == nil {
			return errFlushSucceededUnderPartition
		}
		if got := agents[i].SpooledBatches(); got != 1 {
			t.Errorf("host %d spooled %d batches, want 1", i, got)
		}
		return nil
	})

	tick.Store(2) // heal: the whole fleet redials at once
	parallel("flush after heal", func(i int) error {
		return agents[i].Flush()
	})
	for i := 0; i < users; i++ {
		if got := srv.AlertCount(uint32(i)); got != sent[i] {
			t.Fatalf("host %d: console tallied %d alerts, want exactly %d", i, got, sent[i])
		}
		if agents[i].Reconnects() < 1 {
			t.Fatalf("host %d never reconnected through the storm", i)
		}
		if agents[i].SpooledBatches() != 0 {
			t.Fatalf("host %d still spools %d batches after heal", i, agents[i].SpooledBatches())
		}
	}

	// Idempotent tail: an extra flush moves nothing.
	parallel("idle flush", func(i int) error { return agents[i].Flush() })
	total := 0
	for i := 0; i < users; i++ {
		total += sent[i]
	}
	if srv.TotalAlerts() != total {
		t.Fatalf("TotalAlerts = %d, want %d", srv.TotalAlerts(), total)
	}

	// Liveness saw both incarnations of every host; the conn table
	// drains once the agents close.
	for id, lv := range srv.Liveness() {
		if lv.Connects < 2 {
			t.Fatalf("host %d liveness records %d connects, want >= 2", id, lv.Connects)
		}
	}
	if got := srv.ActiveConns(); got != users {
		t.Fatalf("ActiveConns = %d with %d live hosts", got, users)
	}
	for _, a := range agents {
		_ = a.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.ActiveConns() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("conns table still holds %d entries after the storm", srv.ActiveConns())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

var errFlushSucceededUnderPartition = &protocolTestError{"flush succeeded inside the partition window"}

type protocolTestError struct{ msg string }

func (e *protocolTestError) Error() string { return e.msg }
