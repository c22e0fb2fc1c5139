package console

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/netsim"
	"repro/internal/trace"
	"repro/internal/wire"
)

// TestWriteReadMsgRoundTrip sends a week of 5-minute bins with awkward
// values through the frame codec: every sample must come back with the
// same bits, in a body of exactly 20+8n bytes.
func TestWriteReadMsgRoundTrip(t *testing.T) {
	samples := make([]float64, 2016)
	specials := []float64{math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, -math.MaxFloat64, math.MaxFloat64, 1e-310, 0.1 + 0.2}
	for i := range samples {
		samples[i] = float64(i)/3 - 300
	}
	copy(samples, specials)
	in := DistUpload{HostID: math.MaxUint32, Feature: int(features.Distinct), Epoch: -7, Samples: samples}
	var out DistUpload
	body := roundTrip(t, MsgDistUpload, in, &out)
	if len(body) != distUploadHeader+sampleSize*len(samples) {
		t.Fatalf("body is %d bytes, want %d", len(body), distUploadHeader+sampleSize*len(samples))
	}
	if out.HostID != in.HostID || out.Feature != in.Feature || out.Epoch != in.Epoch || len(out.Samples) != len(samples) {
		t.Fatalf("header round trip: got host %d feature %d epoch %d n %d", out.HostID, out.Feature, out.Epoch, len(out.Samples))
	}
	for i, v := range samples {
		if math.Float64bits(out.Samples[i]) != math.Float64bits(v) {
			t.Fatalf("sample %d: %x, want %x", i, math.Float64bits(out.Samples[i]), math.Float64bits(v))
		}
	}
}

func TestReadMsgRejectsOversizedFrame(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 1})
	if _, _, err := ReadMsg(&buf); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestReadMsgTruncated(t *testing.T) {
	var buf bytes.Buffer
	_ = WriteMsg(&buf, MsgAck, Ack{})
	b := buf.Bytes()[:buf.Len()-1]
	if _, _, err := ReadMsg(bytes.NewReader(b)); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestMsgTypeString(t *testing.T) {
	for _, typ := range []MsgType{MsgHello, MsgDistUpload, MsgThresholds, MsgAlertBatch, MsgAck, MsgError} {
		if strings.HasPrefix(typ.String(), "msgtype(") {
			t.Errorf("type %d unnamed", typ)
		}
	}
	if MsgType(99).String() != "msgtype(99)" {
		t.Error("unknown type name")
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(ServerConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := NewServer(ServerConfig{ExpectedHosts: 1}); err == nil {
		t.Fatal("missing policy accepted")
	}
}

// startServer launches a console on loopback and returns it with its
// address.
func startServer(t *testing.T, cfg ServerConfig) (*Server, string) {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	return srv, ln.Addr().String()
}

func policy99(g core.Grouping) core.Policy {
	return core.Policy{Heuristic: core.Percentile{Q: 0.99}, Grouping: g}
}

// TestEndToEndFleet runs a small fleet of agents against a live
// console over loopback TCP: upload training week, receive
// thresholds, monitor the test week, batch alerts.
func TestEndToEndFleet(t *testing.T) {
	const users = 8
	pop := trace.MustPopulation(trace.Config{Users: users, Weeks: 2, Seed: 51})
	srv, addr := startServer(t, ServerConfig{
		Policy:        policy99(core.FullDiversity{}),
		ExpectedHosts: users,
	})

	var wg sync.WaitGroup
	alerts := make([]int, users)
	errs := make([]error, users)
	for i, u := range pop.Users {
		wg.Add(1)
		go func(i int, u *trace.User) {
			defer wg.Done()
			errs[i] = func() error {
				agent, err := Dial(addr, uint32(u.ID), fmt.Sprintf("host-%d", u.ID))
				if err != nil {
					return err
				}
				defer agent.Close()
				m := u.Series()
				lo0, hi0 := m.WeekRange(0)
				if err := agent.UploadMatrix(m, lo0, hi0); err != nil {
					return err
				}
				thr, err := agent.WaitThresholds(20 * time.Second)
				if err != nil {
					return err
				}
				for _, f := range features.All() {
					if thr.Values[f] <= 0 {
						return fmt.Errorf("feature %s threshold %g", f, thr.Values[f])
					}
				}
				// Monitor week 2 and batch alerts every simulated day.
				lo1, hi1 := m.WeekRange(1)
				for b := lo1; b < hi1; b++ {
					c := features.Counts{
						DNS:      int(m.Rows[b][features.DNS]),
						TCP:      int(m.Rows[b][features.TCP]),
						TCPSYN:   int(m.Rows[b][features.TCPSYN]),
						HTTP:     int(m.Rows[b][features.HTTP]),
						Distinct: int(m.Rows[b][features.Distinct]),
						UDP:      int(m.Rows[b][features.UDP]),
					}
					if err := agent.ObserveWindow(b, c); err != nil {
						return err
					}
					if (b-lo1+1)%96 == 0 {
						alerts[i] += agent.PendingAlerts()
						if err := agent.Flush(); err != nil {
							return err
						}
					}
				}
				alerts[i] += agent.PendingAlerts()
				return agent.Flush()
			}()
		}(i, u)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("agent %d: %v", i, err)
		}
	}
	if !srv.Configured() {
		t.Fatal("server never configured")
	}
	total := 0
	for i, u := range pop.Users {
		got := srv.AlertCount(uint32(u.ID))
		if got != alerts[i] {
			t.Errorf("host %d: console saw %d alerts, agent sent %d", u.ID, got, alerts[i])
		}
		total += got
	}
	if srv.TotalAlerts() != total {
		t.Errorf("TotalAlerts %d != sum %d", srv.TotalAlerts(), total)
	}
	if len(srv.Hosts()) != users {
		t.Errorf("Hosts = %v", srv.Hosts())
	}
	// Full diversity: the server-side assignment must give every user
	// their own group.
	asn := srv.Assignment(features.TCP)
	if asn == nil || len(asn.Groups) != users {
		t.Fatalf("assignment groups: %+v", asn)
	}
}

// TestHomogeneousPushesOneThreshold checks the monoculture path: all
// agents receive the same value.
func TestHomogeneousPushesOneThreshold(t *testing.T) {
	const users = 4
	pop := trace.MustPopulation(trace.Config{Users: users, Weeks: 1, Seed: 53})
	_, addr := startServer(t, ServerConfig{
		Policy:        policy99(core.Homogeneous{}),
		ExpectedHosts: users,
	})
	agents := make([]*Agent, users)
	for i, u := range pop.Users {
		a, err := Dial(addr, uint32(u.ID), "")
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		agents[i] = a
		m := u.Series()
		if err := a.UploadMatrix(m, 0, m.Bins()); err != nil {
			t.Fatal(err)
		}
	}
	var thr0 Thresholds
	for i, a := range agents {
		thr, err := a.WaitThresholds(20 * time.Second)
		if err != nil {
			t.Fatalf("agent %d: %v", i, err)
		}
		if i == 0 {
			thr0 = thr
		} else if thr.Values != thr0.Values {
			t.Fatalf("homogeneous thresholds differ: %v vs %v", thr.Values, thr0.Values)
		}
	}
}

func TestLateConnectorGetsThresholds(t *testing.T) {
	pop := trace.MustPopulation(trace.Config{Users: 3, Weeks: 1, Seed: 57})
	srv, addr := startServer(t, ServerConfig{
		Policy:        policy99(core.PartialDiversity{NumGroups: 2}),
		ExpectedHosts: 2,
	})
	// First two hosts upload; configuration happens once both are in.
	var agents []*Agent
	for _, u := range pop.Users[:2] {
		a, err := Dial(addr, uint32(u.ID), "")
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		agents = append(agents, a)
		m := u.Series()
		if err := a.UploadMatrix(m, 0, 400); err != nil {
			t.Fatal(err)
		}
	}
	for i, a := range agents {
		if _, err := a.WaitThresholds(20 * time.Second); err != nil {
			t.Fatalf("agent %d: %v", i, err)
		}
	}
	// Free host 0's connection so the reconnect below is accepted.
	_ = agents[0].Close()
	if !srv.Configured() {
		t.Fatal("not configured")
	}
	// A reconnecting host (same ID as host 0) receives the stored
	// thresholds without uploading anything.
	late, err := Dial(addr, uint32(pop.Users[0].ID), "reconnect")
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	if _, err := late.WaitThresholds(20 * time.Second); err != nil {
		t.Fatalf("late connector: %v", err)
	}
}

// TestReconnectDoesNotLeakConns is the regression test for the
// reconnect race fixed in PR 1: a handler that lost its conns slot to
// a faster reconnector must not delete the newcomer's entry on exit,
// and a departed host must always vacate its slot — a leaked entry
// would make every future redial of that host ID fail as a
// "duplicate host". Exercised over the in-memory transport through
// repeated drop-and-redial cycles.
func TestReconnectDoesNotLeakConns(t *testing.T) {
	const users = 2
	pop := trace.MustPopulation(trace.Config{Users: users, Weeks: 1, Seed: 63, BinWidth: 4 * time.Hour})
	srv, err := NewServer(ServerConfig{
		Policy:        policy99(core.FullDiversity{}),
		ExpectedHosts: users,
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

	dial := func(host uint32) *Agent {
		t.Helper()
		conn, err := network.Dial("console")
		if err != nil {
			t.Fatal(err)
		}
		a, err := NewAgent(conn, host, "")
		if err != nil {
			t.Fatalf("host %d: %v", host, err)
		}
		return a
	}

	// Both hosts upload so the console configures and stores
	// thresholds for host 0 to resume onto.
	agents := make([]*Agent, users)
	for i, u := range pop.Users {
		agents[i] = dial(uint32(u.ID))
		m := u.Series()
		if err := agents[i].UploadMatrix(m, 0, m.Bins()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := agents[0].WaitThresholds(20 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Host 0 drops and redials repeatedly. Every cycle must resume
	// cleanly: thresholds re-pushed from the stored assignment, alert
	// batches accepted, and the previous connection's slot vacated
	// (redial is only accepted once the old entry is gone).
	counts := features.Counts{TCP: 1 << 20} // over any sane threshold
	for cycle := 0; cycle < 5; cycle++ {
		_ = agents[0].Close()
		agents[0] = dial(0)
		thr, err := agents[0].WaitThresholds(20 * time.Second)
		if err != nil {
			t.Fatalf("cycle %d: resume: %v", cycle, err)
		}
		if thr.Values[features.TCP] <= 0 {
			t.Fatalf("cycle %d: bogus resumed thresholds %v", cycle, thr.Values)
		}
		if err := agents[0].ObserveWindow(cycle, counts); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if err := agents[0].Flush(); err != nil {
			t.Fatalf("cycle %d: flush after resume: %v", cycle, err)
		}
	}
	if got := srv.AlertCount(0); got < 5 {
		t.Fatalf("console saw %d alerts from the reconnecting host, want >= 5", got)
	}
	// With both hosts connected, exactly two conns entries may exist;
	// after closing both, the table must drain to zero (no leak).
	if got := srv.ActiveConns(); got != users {
		t.Fatalf("ActiveConns = %d with %d live hosts", got, users)
	}
	for _, a := range agents {
		_ = a.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.ActiveConns() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("conns table still holds %d entries after all agents closed", srv.ActiveConns())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestDuplicateHostRejected(t *testing.T) {
	_, addr := startServer(t, ServerConfig{
		Policy:        policy99(core.Homogeneous{}),
		ExpectedHosts: 2,
	})
	a, err := Dial(addr, 7, "")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if _, err := Dial(addr, 7, ""); err == nil {
		t.Fatal("duplicate host id accepted")
	}
}

// TestUploadValidation: uploads the console would refuse — an invalid
// feature, no samples, a NaN or an infinite sample — fail client-side
// with an error, and the single-shot agent keeps its link: it then
// uploads a valid week and receives thresholds.
func TestUploadValidation(t *testing.T) {
	_, addr := startServer(t, ServerConfig{
		Policy:        policy99(core.Homogeneous{}),
		ExpectedHosts: 1,
	})
	a, err := Dial(addr, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.UploadDistribution(features.Feature(42), []float64{1}); err == nil {
		t.Fatal("invalid feature accepted client-side")
	}
	for _, bad := range [][]float64{nil, {}, {1, math.NaN()}, {2, math.Inf(1)}, {math.Inf(-1), 3}} {
		if err := a.UploadDistribution(features.TCP, bad); err == nil || errors.Is(err, ErrAgentDead) {
			t.Fatalf("upload of %v: err = %v, want a client-side rejection", bad, err)
		}
	}
	samples := make([]float64, 40)
	for i := range samples {
		samples[i] = float64(40 - i)
	}
	for _, f := range features.All() {
		if err := a.UploadDistribution(f, samples); err != nil {
			t.Fatalf("valid %s upload after the rejections: %v", f, err)
		}
	}
	if _, err := a.WaitThresholds(10 * time.Second); err != nil {
		t.Fatalf("no thresholds after the rejections: %v", err)
	}
}

// configuredAgent dials a single-shot agent as the only host of a
// fresh console, uploads a 40-window training week for every feature
// and waits for the thresholds.
func configuredAgent(t *testing.T) (*Server, *Agent, Thresholds) {
	t.Helper()
	srv, addr := startServer(t, ServerConfig{
		Policy:        policy99(core.Homogeneous{}),
		ExpectedHosts: 1,
	})
	a, err := Dial(addr, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	samples := make([]float64, 40)
	for i := range samples {
		samples[i] = float64(i)
	}
	for _, f := range features.All() {
		if err := a.UploadDistribution(f, samples); err != nil {
			t.Fatal(err)
		}
	}
	thr, err := a.WaitThresholds(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return srv, a, thr
}

// TestNonFiniteWindowKeepsLink: a window holding +Inf is refused and
// queues nothing, so a single-shot agent that observed it and then a
// finite alarm gets the finite alert acked on its one link, instead of
// spooling an alert the codec cannot send and losing the link to it.
func TestNonFiniteWindowKeepsLink(t *testing.T) {
	srv, a, thr := configuredAgent(t)
	var vec [features.NumFeatures]float64
	vec[features.TCP] = math.Inf(1)
	infErr := a.ObserveVector(0, vec)
	vec[features.TCP] = thr.Values[features.TCP] + 1
	if err := a.ObserveVector(1, vec); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatalf("flush after a +Inf window: %v", err)
	}
	if infErr == nil {
		t.Fatal("a +Inf window was accepted")
	}
	if got := srv.AlertCount(1); got != 1 || a.SpooledBatches() != 0 {
		t.Fatalf("console holds %d alerts, %d batches still spooled; want 1 and 0", got, a.SpooledBatches())
	}
	vec[features.TCP] = math.NaN()
	if err := a.ObserveVector(2, vec); err == nil || a.PendingAlerts() != 0 {
		t.Fatalf("NaN window: err %v, %d alerts queued", err, a.PendingAlerts())
	}
}

// TestUnsendablePayloadKeepsLink: a payload the codec refuses before
// writing fails only its own call with wire.ErrUnsendable; the next
// operation goes out on the same link.
func TestUnsendablePayloadKeepsLink(t *testing.T) {
	srv, a, thr := configuredAgent(t)
	bad := AlertBatch{HostID: 1, Seq: 99, Alerts: []Alert{{Value: math.Inf(1)}}}
	if err := a.rpc(MsgAlertBatch, bad); !errors.Is(err, wire.ErrUnsendable) {
		t.Fatalf("unsendable batch: err %v, want wire.ErrUnsendable", err)
	}
	var vec [features.NumFeatures]float64
	vec[features.UDP] = thr.Values[features.UDP] + 1
	if err := a.ObserveVector(0, vec); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatalf("flush after an unsendable payload: %v", err)
	}
	if got := srv.AlertCount(1); got != 1 || a.Reconnects() != 0 {
		t.Fatalf("console holds %d alerts after %d reconnects; want 1 and 0", got, a.Reconnects())
	}
}

func TestAgentObserveBeforeThresholds(t *testing.T) {
	_, addr := startServer(t, ServerConfig{
		Policy:        policy99(core.Homogeneous{}),
		ExpectedHosts: 2,
	})
	a, err := Dial(addr, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.ObserveWindow(0, features.Counts{TCP: 5}); err == nil {
		t.Fatal("ObserveWindow before thresholds accepted")
	}
}

func TestAgentOverPipe(t *testing.T) {
	// The agent protocol works over any net.Conn; exercise net.Pipe
	// with a scripted server.
	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- func() error {
			typ, body, err := ReadMsg(server)
			if err != nil {
				return err
			}
			var h Hello
			if typ != MsgHello || decode(typ, body, &h) != nil || h.HostID != 42 {
				return fmt.Errorf("bad hello: %v %s", typ, body)
			}
			if err := WriteMsg(server, MsgAck, Ack{}); err != nil {
				return err
			}
			var thr Thresholds
			for f := range thr.Values {
				thr.Values[f] = 10
			}
			return WriteMsg(server, MsgThresholds, thr)
		}()
	}()
	a, err := NewAgent(client, 42, "pipe-host")
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	thr, err := a.WaitThresholds(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if thr.Values[features.TCP] != 10 {
		t.Fatalf("thresholds = %v", thr.Values)
	}
	// Alarm path without any server interaction (queue only).
	if err := a.ObserveWindow(1, features.Counts{TCP: 11}); err != nil {
		t.Fatal(err)
	}
	if a.PendingAlerts() != 1 {
		t.Fatalf("pending = %d", a.PendingAlerts())
	}
	_ = client.Close()
	_ = server.Close()
}

func TestServerRejectsGarbageFirstMessage(t *testing.T) {
	_, addr := startServer(t, ServerConfig{
		Policy:        policy99(core.Homogeneous{}),
		ExpectedHosts: 1,
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteMsg(conn, MsgAlertBatch, AlertBatch{HostID: 1}); err != nil {
		t.Fatal(err)
	}
	typ, _, err := ReadMsg(conn)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgError {
		t.Fatalf("server replied %v, want error", typ)
	}
}

func TestAgentFlushEmpty(t *testing.T) {
	_, addr := startServer(t, ServerConfig{
		Policy:        policy99(core.Homogeneous{}),
		ExpectedHosts: 2,
	})
	a, err := Dial(addr, 11, "")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Flush(); err != nil {
		t.Fatalf("empty flush: %v", err)
	}
}

func TestAgentCloseIdempotent(t *testing.T) {
	_, addr := startServer(t, ServerConfig{
		Policy:        policy99(core.Homogeneous{}),
		ExpectedHosts: 2,
	})
	a, err := Dial(addr, 12, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestWeeklyRelearning exercises the paper's §6.1 methodology over
// the management plane: thresholds are re-learned when agents upload
// a fresh training week, and the new epoch's thresholds differ.
func TestWeeklyRelearning(t *testing.T) {
	const users = 3
	pop := trace.MustPopulation(trace.Config{Users: users, Weeks: 2, Seed: 61})
	srv, addr := startServer(t, ServerConfig{
		Policy:        policy99(core.FullDiversity{}),
		ExpectedHosts: users,
	})
	agents := make([]*Agent, users)
	for i, u := range pop.Users {
		a, err := Dial(addr, uint32(u.ID), "")
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		agents[i] = a
		m := u.Series()
		lo, hi := m.WeekRange(0)
		if err := a.UploadMatrix(m, lo, hi); err != nil {
			t.Fatal(err)
		}
	}
	thr0 := make([]Thresholds, users)
	for i, a := range agents {
		thr, err := a.WaitThresholdsEpoch(0, 20*time.Second)
		if err != nil {
			t.Fatalf("epoch 0 agent %d: %v", i, err)
		}
		if thr.Epoch != 0 {
			t.Fatalf("epoch = %d, want 0", thr.Epoch)
		}
		thr0[i] = thr
	}
	// Week rolls over: re-upload with week 2 as training data.
	for i, u := range pop.Users {
		m := u.Series()
		lo, hi := m.WeekRange(1)
		if err := agents[i].UploadMatrix(m, lo, hi); err != nil {
			t.Fatal(err)
		}
	}
	for i, a := range agents {
		thr, err := a.WaitThresholdsEpoch(1, 20*time.Second)
		if err != nil {
			t.Fatalf("epoch 1 agent %d: %v", i, err)
		}
		if thr.Epoch != 1 {
			t.Fatalf("epoch = %d, want 1", thr.Epoch)
		}
		if thr.Values == thr0[i].Values {
			t.Errorf("agent %d: thresholds identical across weeks (drift expected)", i)
		}
	}
	if srv.Epoch() != 1 {
		t.Fatalf("server epoch = %d", srv.Epoch())
	}
}
