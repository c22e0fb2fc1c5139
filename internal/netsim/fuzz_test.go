package netsim

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/xrand"
)

// TestTraceReaderSurvivesCorruption feeds randomly corrupted .etr
// streams to the reader: whatever the bytes, the reader must return
// records or errors, never panic, and never read past the input.
func TestTraceReaderSurvivesCorruption(t *testing.T) {
	// Start from a valid trace and flip random bytes.
	var valid bytes.Buffer
	tw, _ := NewTraceWriter(&valid, 7)
	for i := 0; i < 50; i++ {
		r := sampleRecord()
		r.Time += int64(i) * 1000
		_ = tw.Write(r)
	}
	_ = tw.Flush()
	base := valid.Bytes()

	rng := xrand.New(99)
	for trial := 0; trial < 200; trial++ {
		data := append([]byte(nil), base...)
		// Corrupt 1-8 random bytes, possibly in the header.
		for k := 0; k <= rng.Intn(8); k++ {
			data[rng.Intn(len(data))] ^= byte(1 + rng.Intn(255))
		}
		// Possibly truncate.
		if rng.Intn(2) == 0 {
			data = data[:rng.Intn(len(data)+1)]
		}
		tr, err := NewTraceReader(bytes.NewReader(data))
		if err != nil {
			continue // rejected header: fine
		}
		var rec Record
		for n := 0; n < 1000; n++ {
			if err := tr.Next(&rec); err != nil {
				break // EOF or corruption error: fine
			}
		}
	}
}

// TestPcapReaderSurvivesCorruption does the same for the pcap reader.
func TestPcapReaderSurvivesCorruption(t *testing.T) {
	var valid bytes.Buffer
	pw, _ := NewPcapWriter(&valid, 0)
	for i := 0; i < 20; i++ {
		_ = pw.Write(sampleRecord())
	}
	_ = pw.Flush()
	base := valid.Bytes()

	rng := xrand.New(101)
	for trial := 0; trial < 200; trial++ {
		data := append([]byte(nil), base...)
		for k := 0; k <= rng.Intn(8); k++ {
			data[rng.Intn(len(data))] ^= byte(1 + rng.Intn(255))
		}
		if rng.Intn(2) == 0 {
			data = data[:rng.Intn(len(data)+1)]
		}
		pr, err := NewPcapReader(bytes.NewReader(data))
		if err != nil {
			continue
		}
		for n := 0; n < 1000; n++ {
			pkt, err := pr.Next()
			if err != nil {
				break
			}
			// Decoding arbitrary bytes must not panic either.
			_, _ = DecodeIPv4(pkt.Data)
		}
	}
}

// TestDecodeIPv4ArbitraryBytes hammers the decoder with random
// buffers of every small length.
func TestDecodeIPv4ArbitraryBytes(t *testing.T) {
	rng := xrand.New(103)
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(64)
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(rng.Intn(256))
		}
		_, _ = DecodeIPv4(buf) // must not panic
	}
}

// TestFaultConnPrefixFuzz fuzzes the delivery invariant the protocol
// layers build on (fault_test.go pins it for one fixed plan): across
// drop-only, reset-only and mixed plans, random-size writes, and
// repeated redials, the byte stream the peer receives is always an
// exact prefix of the byte stream written — drops swallow whole
// writes, resets deliver a prefix, nothing is ever reordered,
// duplicated, or corrupted in-stream.
func TestFaultConnPrefixFuzz(t *testing.T) {
	plans := []FaultPlan{
		{Seed: 1, DropProb: 0.3},
		{Seed: 2, ResetProb: 0.3},
		{Seed: 3, DropProb: 0.2, ResetProb: 0.2},
		{Seed: 4, DropProb: 0.15, ResetProb: 0.15,
			Delay: 5 * time.Microsecond, Jitter: 10 * time.Microsecond},
	}
	for pi, plan := range plans {
		mem := NewMemNetwork()
		ln, err := mem.Listen("sink")
		if err != nil {
			t.Fatal(err)
		}
		fnet, err := NewFaultNetwork(mem, plan, nil)
		if err != nil {
			t.Fatal(err)
		}
		rng := xrand.New(uint64(1000 + pi))
		for trial := 0; trial < 25; trial++ {
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
			recvCh := make(chan []byte, 1)
			go func() {
				var got []byte
				buf := make([]byte, 256)
				for {
					n, err := peer.Read(buf)
					got = append(got, buf[:n]...)
					if err != nil {
						recvCh <- got
						return
					}
				}
			}()
			// Write random-size random-content chunks until a fault
			// kills the connection (or the budget runs out). Every
			// chunk counts as attempted in full: a reset's partial
			// delivery is still a prefix of it.
			var attempted []byte
			for w := 0; w < 40; w++ {
				chunk := make([]byte, 1+rng.Intn(400))
				for i := range chunk {
					chunk[i] = byte(rng.Intn(256))
				}
				attempted = append(attempted, chunk...)
				if _, err := conn.Write(chunk); err != nil {
					break
				}
			}
			_ = conn.Close()
			got := <-recvCh
			_ = peer.Close()
			if len(got) > len(attempted) {
				t.Fatalf("plan %d trial %d: received %d bytes, only %d written",
					pi, trial, len(got), len(attempted))
			}
			if !bytes.Equal(got, attempted[:len(got)]) {
				t.Fatalf("plan %d trial %d: received %d bytes are not a prefix of the written stream",
					pi, trial, len(got))
			}
		}
		_ = ln.Close()
	}
}

// TestTraceReaderStopsAtEOFExactly verifies the reader consumes
// exactly the bytes it needs and leaves any trailing garbage alone.
func TestTraceReaderStopsAtEOFExactly(t *testing.T) {
	var buf bytes.Buffer
	tw, _ := NewTraceWriter(&buf, 1)
	_ = tw.Write(sampleRecord())
	_ = tw.Flush()
	r := bytes.NewReader(buf.Bytes())
	tr, err := NewTraceReader(r)
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	if err := tr.Next(&rec); err != nil {
		t.Fatal(err)
	}
	if err := tr.Next(&rec); err != io.EOF {
		t.Fatalf("expected io.EOF, got %v", err)
	}
}

// FuzzTraceReader feeds arbitrary bytes to the .etr reader. It must
// never panic, and it must either reject the input — a bad header or
// a stream ending mid-record — or round-trip it: writing the header's
// host and every record it read back out reproduces the input, except
// the header's flags and reserved word, which the writer always zeroes.
// The seed corpus in testdata/fuzz/FuzzTraceReader holds a valid
// 50-record trace, a header-only and a truncated one, and corrupted
// copies made as TestTraceReaderSurvivesCorruption makes them.
func FuzzTraceReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := NewTraceReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		recs, err := tr.ReadAll()
		if err != nil {
			return
		}
		var out bytes.Buffer
		tw, err := NewTraceWriter(&out, tr.HostID())
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := tw.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		want := append([]byte(nil), data...)
		clear(want[6:8])
		clear(want[12:headerSize])
		if !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("accepted %d bytes (%d records) re-encode to %d different bytes", len(data), len(recs), out.Len())
		}
	})
}
