package console

import (
	"bytes"
	"encoding"
	"math"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/xrand"
)

// TestReadMsgSurvivesGarbage hammers the frame reader with random
// bytes: it must return errors, never panic, and never allocate an
// unbounded buffer.
func TestReadMsgSurvivesGarbage(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(64)
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(rng.Intn(256))
		}
		// Clamp the length prefix occasionally so the body read path
		// is exercised too.
		if n >= 5 && rng.Intn(2) == 0 {
			buf[0] = byte(rng.Intn(16))
			buf[1], buf[2], buf[3] = 0, 0, 0
		}
		_, _, _ = ReadMsg(bytes.NewReader(buf))
	}
}

// TestServerSurvivesGarbageConnections connects raw sockets that
// write random bytes and vanish; the server must keep serving
// legitimate agents afterwards.
func TestServerSurvivesGarbageConnections(t *testing.T) {
	_, addr := startServer(t, ServerConfig{
		Policy:        policy99(core.Homogeneous{}),
		ExpectedHosts: 2,
	})
	rng := xrand.New(11)
	for trial := 0; trial < 20; trial++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		n := rng.Intn(200)
		junk := make([]byte, n)
		for i := range junk {
			junk[i] = byte(rng.Intn(256))
		}
		_, _ = conn.Write(junk)
		_ = conn.Close()
	}
	// A legitimate agent still gets through.
	a, err := Dial(addr, 42, "survivor")
	if err != nil {
		t.Fatalf("legitimate agent rejected after garbage: %v", err)
	}
	defer a.Close()
	if err := a.UploadDistribution(0, []float64{1, 2, 3}); err != nil {
		t.Fatalf("upload after garbage: %v", err)
	}
}

// TestFrameStreamThroughFaults drives WriteMsg frames through a
// seeded lossy transport: because WriteMsg emits each frame as one
// write and a FaultConn delivers a strict prefix of the written
// stream, the receiver must decode an exact prefix of the sent frame
// sequence and then fail cleanly — never a torn or corrupted frame.
func TestFrameStreamThroughFaults(t *testing.T) {
	type frame struct {
		typ  MsgType
		body []byte
	}
	plans := []netsim.FaultPlan{
		{Seed: 21, DropProb: 0.25},
		{Seed: 22, ResetProb: 0.25},
		{Seed: 23, DropProb: 0.15, ResetProb: 0.15},
	}
	for pi, plan := range plans {
		mem := netsim.NewMemNetwork()
		ln, err := mem.Listen("sink")
		if err != nil {
			t.Fatal(err)
		}
		fnet, err := netsim.NewFaultNetwork(mem, plan, nil)
		if err != nil {
			t.Fatal(err)
		}
		rng := xrand.New(uint64(500 + pi))
		for trial := 0; trial < 20; trial++ {
			// Accept concurrently: MemNetwork.Dial hands the server end
			// over synchronously.
			acceptCh := make(chan net.Conn, 1)
			go func() {
				c, err := ln.Accept()
				if err != nil {
					c = nil
				}
				acceptCh <- c
			}()
			conn, err := fnet.Dial(0, "sink")
			if err != nil {
				t.Fatal(err)
			}
			peer := <-acceptCh
			if peer == nil {
				t.Fatal("accept failed")
			}
			recvCh := make(chan []frame, 1)
			go func() {
				var got []frame
				for {
					typ, body, err := ReadMsg(peer)
					if err != nil {
						recvCh <- got
						return
					}
					got = append(got, frame{typ, body})
				}
			}()
			var sent []frame
			for w := 0; w < 30; w++ {
				var (
					typ     MsgType
					payload any
				)
				switch rng.Intn(3) {
				case 0:
					typ = MsgPing
					payload = Ping{HostID: uint32(rng.Intn(64))}
				case 1:
					typ = MsgAlertBatch
					alerts := make([]Alert, rng.Intn(5))
					for i := range alerts {
						alerts[i] = Alert{Feature: rng.Intn(6), Bin: rng.Intn(100), Value: rng.Float64()}
					}
					payload = AlertBatch{HostID: 3, Seq: uint64(w + 1), Alerts: alerts}
				default:
					typ = MsgDistUpload
					samples := make([]float64, 1+rng.Intn(20))
					for i := range samples {
						samples[i] = rng.Float64()
					}
					payload = DistUpload{HostID: 3, Feature: rng.Intn(6), Samples: samples}
				}
				var enc bytes.Buffer
				if err := WriteMsg(&enc, typ, payload); err != nil {
					t.Fatal(err)
				}
				sent = append(sent, frame{typ, enc.Bytes()[5:]})
				if err := WriteMsg(conn, typ, payload); err != nil {
					// The frame errored mid-transport; it may have been
					// partially delivered, so it cannot count as sent
					// in full — but a FaultConn reset only delivers a
					// prefix, which ReadMsg rejects, so the receiver
					// sees at most the frames before it.
					sent = sent[:len(sent)-1]
					break
				}
			}
			_ = conn.Close()
			got := <-recvCh
			_ = peer.Close()
			// A dropped write is swallowed whole (reported as sent), so
			// the receiver may trail the sender — but only as an exact
			// frame-sequence prefix.
			if len(got) > len(sent)+1 {
				t.Fatalf("plan %d trial %d: received %d frames, sent %d", pi, trial, len(got), len(sent))
			}
			for i, f := range got {
				if i >= len(sent) {
					// The last write errored after full delivery is
					// impossible: resets deliver strict prefixes and
					// ReadMsg cannot decode a torn frame. Anything here
					// is a violation.
					t.Fatalf("plan %d trial %d: received frame %d beyond the %d cleanly sent",
						pi, trial, i, len(sent))
				}
				if f.typ != sent[i].typ || !bytes.Equal(f.body, sent[i].body) {
					t.Fatalf("plan %d trial %d: frame %d differs from the frame sent (got %s, want %s)",
						pi, trial, i, f.typ, sent[i].typ)
				}
			}
		}
		_ = ln.Close()
	}
}

// TestServerSurvivesSlowHello verifies a stalled half-open connection
// does not wedge the accept loop.
func TestServerSurvivesSlowHello(t *testing.T) {
	_, addr := startServer(t, ServerConfig{
		Policy:        policy99(core.Homogeneous{}),
		ExpectedHosts: 2,
	})
	stalled, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close() // never sends a byte

	done := make(chan error, 1)
	go func() {
		a, err := Dial(addr, 7, "prompt")
		if err == nil {
			_ = a.Close()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("prompt agent failed behind a stalled peer: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("accept loop wedged by a stalled connection")
	}
}

// The native fuzz targets below check three properties of the wire
// codec: no input panics; a body is either rejected or round-trips
// exactly; and decoding allocates in proportion to the body, never to
// a count the body declares. Their seed corpora live in
// testdata/fuzz/<target>; `make fuzz` runs each target for a bounded
// time.

// allocated returns the heap bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocSlack covers what a codec call allocates beyond its payload:
// the allocator's rounding up to size classes and 8 KiB pages, and an
// error value.
const allocSlack = 16 << 10

// checkDecodeAlloc fails when decoding an n-byte body allocated more
// than the body carries. The limit is twice the body plus allocSlack,
// since an in-memory Alert takes 32 bytes to its 24 on the wire. A
// decoder that allocated by a declared count before checking it
// against the length (up to 32 GiB for a 20-byte body) is far past it.
func checkDecodeAlloc(t *testing.T, n int, got uint64) {
	t.Helper()
	if limit := 2*uint64(n) + allocSlack; got > limit {
		t.Fatalf("decoding a %d-byte body allocated %d bytes (limit %d)", n, got, limit)
	}
}

func mustBinary(tb testing.TB, v encoding.BinaryMarshaler) []byte {
	tb.Helper()
	b, err := v.MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

func FuzzDistUpload(f *testing.F) {
	for _, u := range []DistUpload{
		{},
		{HostID: 3, Feature: 2, Epoch: 1, Samples: []float64{0, 1.5, 2}},
		{HostID: math.MaxUint32, Feature: 5, Epoch: -1, Samples: []float64{math.Copysign(0, -1), math.MaxFloat64}},
	} {
		f.Add(mustBinary(f, u))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var (
			u   DistUpload
			err error
		)
		checkDecodeAlloc(t, len(body), allocated(func() { err = u.UnmarshalBinary(body) }))
		if err == nil {
			if again, err := u.MarshalBinary(); err != nil || !bytes.Equal(again, body) {
				t.Fatalf("accepted body does not re-encode to itself (err %v)", err)
			}
		}
		// Encode side: the body's bytes as sample bits. Encoding fails
		// exactly when a sample is not finite, and otherwise decodes
		// back bit for bit.
		in := DistUpload{HostID: 1, Feature: 2, Epoch: 3, Samples: make([]float64, len(body)/sampleSize)}
		allFinite := true
		for i := range in.Samples {
			in.Samples[i] = math.Float64frombits(le.Uint64(body[sampleSize*i:]))
			allFinite = allFinite && finite(in.Samples[i])
		}
		enc, err := in.MarshalBinary()
		if (err == nil) != allFinite {
			t.Fatalf("encode err %v with all samples finite = %v", err, allFinite)
		}
		if err != nil {
			return
		}
		var back DistUpload
		if err := back.UnmarshalBinary(enc); err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		for i, v := range in.Samples {
			if math.Float64bits(back.Samples[i]) != math.Float64bits(v) {
				t.Fatalf("sample %d: %x, want %x", i, math.Float64bits(back.Samples[i]), math.Float64bits(v))
			}
		}
	})
}

func FuzzAlertBatch(f *testing.F) {
	for _, ab := range []AlertBatch{
		{},
		{HostID: 3, Seq: 9, Alerts: []Alert{{Feature: 1, Bin: 40, Value: 12, Threshold: 7.5}}},
		{HostID: math.MaxUint32, Seq: math.MaxUint64, Alerts: []Alert{
			{Feature: -1, Bin: math.MinInt32, Value: math.Copysign(0, -1), Threshold: math.MaxFloat64},
			{Feature: 5, Bin: math.MaxInt32, Value: 1, Threshold: 0},
		}},
	} {
		f.Add(mustBinary(f, ab))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var (
			ab  AlertBatch
			err error
		)
		checkDecodeAlloc(t, len(body), allocated(func() { err = ab.UnmarshalBinary(body) }))
		if err == nil {
			if again, err := ab.MarshalBinary(); err != nil || !bytes.Equal(again, body) {
				t.Fatalf("accepted body does not re-encode to itself (err %v)", err)
			}
		}
		// Encode side: the body's bytes as alert records.
		in := AlertBatch{HostID: 1, Seq: 2, Alerts: make([]Alert, len(body)/alertSize)}
		allFinite := true
		for i := range in.Alerts {
			p := body[alertSize*i:]
			a := Alert{
				Feature:   int(int32(le.Uint32(p[0:]))),
				Bin:       int(int32(le.Uint32(p[4:]))),
				Value:     math.Float64frombits(le.Uint64(p[8:])),
				Threshold: math.Float64frombits(le.Uint64(p[16:])),
			}
			in.Alerts[i] = a
			allFinite = allFinite && finite(a.Value) && finite(a.Threshold)
		}
		enc, err := in.MarshalBinary()
		if (err == nil) != allFinite {
			t.Fatalf("encode err %v with all values finite = %v", err, allFinite)
		}
		if err != nil {
			return
		}
		var back AlertBatch
		if err := back.UnmarshalBinary(enc); err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		for i, a := range in.Alerts {
			b := back.Alerts[i]
			if a.Feature != b.Feature || a.Bin != b.Bin ||
				math.Float64bits(a.Value) != math.Float64bits(b.Value) ||
				math.Float64bits(a.Threshold) != math.Float64bits(b.Threshold) {
				t.Fatalf("alert %d: %+v, want %+v", i, b, a)
			}
		}
	})
}

// payloadFor returns a fresh payload value for a message type, or nil
// for an unknown type.
func payloadFor(t MsgType) any {
	switch t {
	case MsgHello:
		return new(Hello)
	case MsgDistUpload:
		return new(DistUpload)
	case MsgThresholds:
		return new(Thresholds)
	case MsgAlertBatch:
		return new(AlertBatch)
	case MsgAck:
		return new(Ack)
	case MsgError:
		return new(ProtoError)
	case MsgPing:
		return new(Ping)
	}
	return nil
}

func FuzzReadMsg(f *testing.F) {
	frame := func(t MsgType, payload any) []byte {
		var buf bytes.Buffer
		if err := WriteMsg(&buf, t, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	var thr Thresholds
	for i := range thr.Values {
		thr.Values[i] = float64(10 * i)
	}
	thr.Policy, thr.Group, thr.Epoch = "percentile(99)/8-partial", 3, 1
	upload := frame(MsgDistUpload, DistUpload{HostID: 2, Feature: 1, Samples: []float64{1, 2, 4}})
	for _, seed := range [][]byte{
		frame(MsgHello, Hello{HostID: 7, Hostname: "host-7", Resume: true, Proto: ProtoVersion}),
		upload,
		frame(MsgThresholds, thr),
		frame(MsgAlertBatch, AlertBatch{HostID: 2, Seq: 1, Alerts: []Alert{{Feature: 1, Bin: 3, Value: 9, Threshold: 4}}}),
		frame(MsgAck, Ack{Seq: 1}),
		frame(MsgError, ProtoError{Message: "expected hello"}),
		frame(MsgPing, Ping{HostID: 2}),
		upload[:len(upload)-1],                 // truncated body
		{0xff, 0xff, 0xff, 0xff, byte(MsgAck)}, // over MaxFrame
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			typ  MsgType
			body []byte
			err  error
		)
		got := allocated(func() { typ, body, err = ReadMsg(bytes.NewReader(data)) })
		// ReadMsg allocates the declared body, capped by MaxFrame.
		if len(data) >= 5 {
			if limit := uint64(min(le.Uint32(data), MaxFrame)) + allocSlack; got > limit {
				t.Fatalf("ReadMsg allocated %d bytes (limit %d)", got, limit)
			}
		}
		if err != nil {
			return
		}
		if !bytes.Equal(data[:5+len(body)], append([]byte{data[0], data[1], data[2], data[3], byte(typ)}, body...)) {
			t.Fatalf("ReadMsg returned a body that is not the frame's")
		}
		v := payloadFor(typ)
		if v == nil {
			return
		}
		_, binary := v.(encoding.BinaryUnmarshaler)
		if binary {
			checkDecodeAlloc(t, len(body), allocated(func() { err = decode(typ, body, v) }))
		} else {
			err = decode(typ, body, v)
		}
		if err != nil {
			return
		}
		// An accepted payload survives a second trip through the frame
		// codec: byte for byte when binary, value for value when JSON.
		var buf bytes.Buffer
		if err := WriteMsg(&buf, typ, v); err != nil {
			t.Fatalf("re-encoding an accepted %s: %v", typ, err)
		}
		typ2, body2, err := ReadMsg(&buf)
		if err != nil || typ2 != typ {
			t.Fatalf("re-read %s as %s: %v", typ, typ2, err)
		}
		if binary {
			if !bytes.Equal(body2, body) {
				t.Fatalf("%s body does not re-encode to itself", typ)
			}
			return
		}
		v2 := payloadFor(typ)
		if err := decode(typ, body2, v2); err != nil || !reflect.DeepEqual(v, v2) {
			t.Fatalf("%s round trip: %+v -> %+v (err %v)", typ, v, v2, err)
		}
	})
}
