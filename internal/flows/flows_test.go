package flows

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/features"
	"repro/internal/netsim"
	"repro/internal/trace"
)

var (
	host   = netsim.AddrFrom4(10, 1, 1, 10)
	remote = netsim.AddrFrom4(93, 10, 0, 1)
	rem2   = netsim.AddrFrom4(93, 10, 0, 2)
)

func mustTracker(t *testing.T) *Tracker {
	t.Helper()
	tr, err := NewTracker(host, 15*time.Minute, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func tcpSYN(ts int64, srcPort uint16, dst netsim.Endpoint) netsim.Record {
	return netsim.Record{Time: ts, Src: netsim.Endpoint{Addr: host, Port: srcPort},
		Dst: dst, Proto: netsim.ProtoTCP, Flags: netsim.FlagSYN, Length: 60}
}

func TestTrackerCountsTCPConnection(t *testing.T) {
	tr := mustTracker(t)
	dst := netsim.Endpoint{Addr: remote, Port: 443}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(tr.Observe(tcpSYN(100, 10000, dst)))
	must(tr.Observe(tcpSYN(200, 10000, dst))) // SYN retransmit: same flow
	// SYN-ACK reply (inbound) must not count.
	must(tr.Observe(netsim.Record{Time: 300, Src: dst,
		Dst:   netsim.Endpoint{Addr: host, Port: 10000},
		Proto: netsim.ProtoTCP, Flags: netsim.FlagSYN | netsim.FlagACK}))
	m, err := tr.Finish(1)
	if err != nil {
		t.Fatal(err)
	}
	row := m.Rows[0]
	if row[features.TCP] != 1 {
		t.Errorf("TCP = %g, want 1", row[features.TCP])
	}
	if row[features.TCPSYN] != 2 {
		t.Errorf("TCPSYN = %g, want 2 (SYN + retransmit)", row[features.TCPSYN])
	}
	if row[features.HTTP] != 0 {
		t.Errorf("HTTP = %g, want 0 for port 443", row[features.HTTP])
	}
	if row[features.Distinct] != 1 {
		t.Errorf("Distinct = %g, want 1", row[features.Distinct])
	}
}

func TestTrackerHTTPClassification(t *testing.T) {
	tr := mustTracker(t)
	_ = tr.Observe(tcpSYN(0, 10000, netsim.Endpoint{Addr: remote, Port: 80}))
	_ = tr.Observe(tcpSYN(1, 10001, netsim.Endpoint{Addr: rem2, Port: 443}))
	m, _ := tr.Finish(1)
	if m.Rows[0][features.HTTP] != 1 || m.Rows[0][features.TCP] != 2 {
		t.Fatalf("HTTP=%g TCP=%g", m.Rows[0][features.HTTP], m.Rows[0][features.TCP])
	}
}

func TestTrackerUDPAndDNS(t *testing.T) {
	tr := mustTracker(t)
	udpDst := netsim.Endpoint{Addr: remote, Port: 5000}
	dnsDst := netsim.Endpoint{Addr: trace.DNSServerAddr, Port: netsim.PortDNS}
	_ = tr.Observe(netsim.Record{Time: 0, Src: netsim.Endpoint{Addr: host, Port: 20000},
		Dst: udpDst, Proto: netsim.ProtoUDP})
	_ = tr.Observe(netsim.Record{Time: 1, Src: netsim.Endpoint{Addr: host, Port: 20000},
		Dst: udpDst, Proto: netsim.ProtoUDP}) // same flow
	_ = tr.Observe(netsim.Record{Time: 2, Src: netsim.Endpoint{Addr: host, Port: 20001},
		Dst: dnsDst, Proto: netsim.ProtoUDP})
	_ = tr.Observe(netsim.Record{Time: 3, Src: netsim.Endpoint{Addr: host, Port: 20002},
		Dst: dnsDst, Proto: netsim.ProtoUDP}) // second DNS query, new flow
	m, _ := tr.Finish(1)
	row := m.Rows[0]
	if row[features.UDP] != 1 {
		t.Errorf("UDP = %g, want 1", row[features.UDP])
	}
	if row[features.DNS] != 2 {
		t.Errorf("DNS = %g, want 2", row[features.DNS])
	}
	if row[features.Distinct] != 2 { // remote + resolver
		t.Errorf("Distinct = %g, want 2", row[features.Distinct])
	}
}

func TestTrackerIgnoresForeignTraffic(t *testing.T) {
	tr := mustTracker(t)
	other := netsim.AddrFrom4(10, 1, 1, 99)
	_ = tr.Observe(netsim.Record{Time: 0, Src: netsim.Endpoint{Addr: other, Port: 1},
		Dst: netsim.Endpoint{Addr: remote, Port: 80}, Proto: netsim.ProtoTCP, Flags: netsim.FlagSYN})
	m, _ := tr.Finish(1)
	if m.Rows[0] != (features.Counts{}).AsVector() {
		t.Fatalf("foreign traffic counted: %v", m.Rows[0])
	}
}

func TestTrackerBinBoundaries(t *testing.T) {
	tr := mustTracker(t)
	width := (15 * time.Minute).Microseconds()
	_ = tr.Observe(tcpSYN(0, 10000, netsim.Endpoint{Addr: remote, Port: 80}))
	_ = tr.Observe(tcpSYN(width, 10001, netsim.Endpoint{Addr: remote, Port: 80}))     // bin 1 exactly
	_ = tr.Observe(tcpSYN(3*width+1, 10002, netsim.Endpoint{Addr: remote, Port: 80})) // bin 3
	m, err := tr.Finish(5)
	if err != nil {
		t.Fatal(err)
	}
	wantTCP := []float64{1, 1, 0, 1, 0}
	for b, want := range wantTCP {
		if m.Rows[b][features.TCP] != want {
			t.Fatalf("bin %d TCP = %g, want %g", b, m.Rows[b][features.TCP], want)
		}
	}
}

func TestTrackerPerBinFlowReset(t *testing.T) {
	// The same 5-tuple re-appearing in a later bin counts again
	// (per-window counters, as the features are defined).
	tr := mustTracker(t)
	width := (15 * time.Minute).Microseconds()
	dst := netsim.Endpoint{Addr: remote, Port: 80}
	_ = tr.Observe(tcpSYN(0, 10000, dst))
	_ = tr.Observe(tcpSYN(width+5, 10000, dst))
	m, _ := tr.Finish(2)
	if m.Rows[0][features.TCP] != 1 || m.Rows[1][features.TCP] != 1 {
		t.Fatalf("rows: %v %v", m.Rows[0], m.Rows[1])
	}
}

func TestTrackerOutOfOrder(t *testing.T) {
	tr := mustTracker(t)
	_ = tr.Observe(tcpSYN(1000, 10000, netsim.Endpoint{Addr: remote, Port: 80}))
	err := tr.Observe(tcpSYN(999, 10001, netsim.Endpoint{Addr: remote, Port: 80}))
	if !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("err = %v, want ErrOutOfOrder", err)
	}
	tr2, _ := NewTracker(host, 15*time.Minute, 5000)
	if err := tr2.Observe(tcpSYN(10, 1, netsim.Endpoint{Addr: remote, Port: 80})); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("pre-start record: err = %v", err)
	}
}

func TestTrackerBeyondRequestedBins(t *testing.T) {
	tr := mustTracker(t)
	width := (15 * time.Minute).Microseconds()
	_ = tr.Observe(tcpSYN(2*width+1, 10000, netsim.Endpoint{Addr: remote, Port: 80}))
	if _, err := tr.Finish(2); err == nil {
		t.Fatal("activity beyond requested bins accepted")
	}
}

func TestTrackerRejectsTinyBins(t *testing.T) {
	if _, err := NewTracker(host, time.Millisecond, 0); err == nil {
		t.Fatal("millisecond bins accepted")
	}
}

// TestPacketPathMatchesFastPath is the pipeline's end-to-end
// equivalence check: packets materialized by trace.EmitBin, run
// through the flow tracker, must reproduce exactly the counts the
// generator's fast path reports, for every user and bin.
func TestPacketPathMatchesFastPath(t *testing.T) {
	pop := trace.MustPopulation(trace.Config{Users: 6, Weeks: 1, Seed: 21})
	const bins = 80 // ~a day of 15-minute bins
	for _, u := range pop.Users {
		tr, err := NewTracker(u.Addr, pop.Cfg.BinWidth, pop.Cfg.StartMicros)
		if err != nil {
			t.Fatal(err)
		}
		var obsErr error
		for b := 0; b < bins; b++ {
			u.EmitBin(b, func(rec netsim.Record) {
				if obsErr == nil {
					obsErr = tr.Observe(rec)
				}
			})
		}
		if obsErr != nil {
			t.Fatalf("user %d: %v", u.ID, obsErr)
		}
		m, err := tr.Finish(bins)
		if err != nil {
			t.Fatal(err)
		}
		fast := u.Series()
		for b := 0; b < bins; b++ {
			want := fast.Rows[b]
			if m.Rows[b] != want {
				t.Fatalf("user %d bin %d: packet path %v != fast path %v",
					u.ID, b, m.Rows[b], want)
			}
		}
	}
}

// TestTraceFileRoundTripThroughTracker covers the on-disk path:
// User.WriteTrace -> .etr bytes -> TraceReader -> ExtractTrace.
func TestTraceFileRoundTripThroughTracker(t *testing.T) {
	pop := trace.MustPopulation(trace.Config{Users: 2, Weeks: 1, Seed: 33})
	u := pop.Users[1]
	const bins = 40
	var buf bytes.Buffer
	n, err := u.WriteTrace(&buf, 0, bins)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("empty trace written")
	}
	rd, err := netsim.NewTraceReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rd.HostID() != uint32(u.ID) {
		t.Fatalf("hostID = %d", rd.HostID())
	}
	m, err := ExtractTrace(rd, u.Addr, pop.Cfg.BinWidth, pop.Cfg.StartMicros, bins)
	if err != nil {
		t.Fatal(err)
	}
	fast := u.Series()
	for b := 0; b < bins; b++ {
		if m.Rows[b] != fast.Rows[b] {
			t.Fatalf("bin %d: file path %v != fast path %v", b, m.Rows[b], fast.Rows[b])
		}
	}
}

func TestWriteTraceBadRange(t *testing.T) {
	pop := trace.MustPopulation(trace.Config{Users: 1, Weeks: 1, Seed: 1})
	var buf bytes.Buffer
	if _, err := pop.Users[0].WriteTrace(&buf, 5, 2); err == nil {
		t.Fatal("inverted range accepted")
	}
	if _, err := pop.Users[0].WriteTrace(&buf, 0, 1<<20); err == nil {
		t.Fatal("out-of-range accepted")
	}
}

func BenchmarkTrackerObserve(b *testing.B) {
	tr, _ := NewTracker(host, 15*time.Minute, 0)
	rec := tcpSYN(0, 10000, netsim.Endpoint{Addr: remote, Port: 80})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec.Time = int64(i) * 10
		rec.Src.Port = uint16(10000 + i%40000)
		_ = tr.Observe(rec)
	}
}

func BenchmarkEmitAndExtractBin(b *testing.B) {
	pop := trace.MustPopulation(trace.Config{Users: 1, Weeks: 1, Seed: 2})
	u := pop.Users[0]
	for i := 0; i < b.N; i++ {
		bin := 40 + i%600
		tr, _ := NewTracker(u.Addr, pop.Cfg.BinWidth, u.BinStartMicros(bin))
		u.EmitBin(bin, func(rec netsim.Record) { _ = tr.Observe(rec) })
		_, _ = tr.Finish(1)
	}
}
