package netsim

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func sampleRecord() Record {
	return Record{
		Time:   1172707200000000, // 2007-03-01 00:00:00 UTC, inside the paper's Q1 2007 window
		Src:    Endpoint{Addr: AddrFrom4(10, 1, 2, 3), Port: 49152},
		Dst:    Endpoint{Addr: AddrFrom4(93, 184, 216, 34), Port: 80},
		Proto:  ProtoTCP,
		Flags:  FlagSYN,
		Length: 60,
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	var buf [RecordSize]byte
	want := sampleRecord()
	if n := EncodeRecord(buf[:], want); n != RecordSize {
		t.Fatalf("EncodeRecord wrote %d bytes", n)
	}
	var got Record
	DecodeRecord(buf[:], &got)
	if got != want {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	f := func(ts int64, sa, da [4]byte, sp, dp uint16, proto, flags uint8, length uint16) bool {
		want := Record{
			Time:   ts,
			Src:    Endpoint{Addr: sa, Port: sp},
			Dst:    Endpoint{Addr: da, Port: dp},
			Proto:  Proto(proto),
			Flags:  TCPFlags(flags),
			Length: length,
		}
		var buf [RecordSize]byte
		EncodeRecord(buf[:], want)
		var got Record
		DecodeRecord(buf[:], &got)
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTraceWriterReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf, 42)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]Record, 100)
	base := sampleRecord()
	for i := range recs {
		recs[i] = base
		recs[i].Time += int64(i) * 1000
		recs[i].Dst.Addr = AddrFromUint32(uint32(i))
		if err := tw.Write(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if tw.Count() != 100 {
		t.Fatalf("Count = %d", tw.Count())
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}

	tr, err := NewTraceReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if tr.HostID() != 42 {
		t.Fatalf("HostID = %d", tr.HostID())
	}
	got, err := tr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, wrote %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestTraceReaderBadMagic(t *testing.T) {
	_, err := NewTraceReader(strings.NewReader("NOTATRACEFILE___"))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestTraceReaderShortHeader(t *testing.T) {
	if _, err := NewTraceReader(strings.NewReader("ETR1")); err == nil {
		t.Fatal("short header accepted")
	}
}

func TestTraceReaderBadVersion(t *testing.T) {
	var buf bytes.Buffer
	tw, _ := NewTraceWriter(&buf, 1)
	_ = tw.Flush()
	b := buf.Bytes()
	b[4] = 99 // corrupt version
	_, err := NewTraceReader(bytes.NewReader(b))
	if !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

func TestTraceReaderTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	tw, _ := NewTraceWriter(&buf, 1)
	_ = tw.Write(sampleRecord())
	_ = tw.Flush()
	b := buf.Bytes()[:buf.Len()-5] // drop last 5 bytes
	tr, err := NewTraceReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	err = tr.Next(&rec)
	if !errors.Is(err, ErrShortRecord) {
		t.Fatalf("err = %v, want ErrShortRecord", err)
	}
}

func TestTraceReaderEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	tw, _ := NewTraceWriter(&buf, 7)
	_ = tw.Flush()
	tr, err := NewTraceReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	if err := tr.Next(&rec); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

func TestWriterPersistsErrors(t *testing.T) {
	w := &failAfter{n: 0}
	tw, err := NewTraceWriter(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Writes go to a 64 KiB bufio buffer, so force the failure via Flush.
	_ = tw.Write(sampleRecord())
	if err := tw.Flush(); err == nil {
		t.Fatal("flush to failing writer succeeded")
	}
	if err := tw.Write(sampleRecord()); err == nil {
		t.Fatal("write after error succeeded")
	}
}

type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("disk full")
	}
	f.n--
	return len(p), nil
}

func TestFlagsPredicates(t *testing.T) {
	if !FlagSYN.IsSYN() {
		t.Error("pure SYN not recognized")
	}
	if (FlagSYN | FlagACK).IsSYN() {
		t.Error("SYN-ACK misclassified as initial SYN")
	}
	if FlagACK.IsSYN() {
		t.Error("ACK misclassified as SYN")
	}
	if !(FlagSYN | FlagACK).Has(FlagACK) {
		t.Error("Has(ACK) failed")
	}
}

func TestFlagsString(t *testing.T) {
	cases := map[TCPFlags]string{
		0:                 ".",
		FlagSYN:           "S",
		FlagSYN | FlagACK: "SA",
		FlagFIN:           "F",
		FlagRST:           "R",
	}
	for f, want := range cases {
		if got := f.String(); got != want {
			t.Errorf("%08b.String() = %q, want %q", uint8(f), got, want)
		}
	}
}

func TestAddrConversions(t *testing.T) {
	a := AddrFrom4(192, 168, 1, 200)
	if a.String() != "192.168.1.200" {
		t.Fatalf("String = %s", a)
	}
}

func TestFlowKeyUsableAsMapKey(t *testing.T) {
	m := map[FlowKey]int{}
	k := sampleRecord().Key()
	m[k]++
	m[k]++
	rev := FlowKey{Proto: k.Proto, Src: k.Dst, Dst: k.Src}
	m[rev]++
	if m[k] != 2 || m[rev] != 1 {
		t.Fatalf("map counts: %v", m)
	}
}

func TestRecordClassifiers(t *testing.T) {
	r := sampleRecord()
	if r.IsDNS() {
		t.Error("port-80 classified DNS")
	}
	dns := r
	dns.Proto = ProtoUDP
	dns.Dst.Port = PortDNS
	if !dns.IsDNS() {
		t.Error("port-53 UDP not classified DNS")
	}
}

func TestRecordTimestamp(t *testing.T) {
	r := sampleRecord()
	want := time.Date(2007, 3, 1, 0, 0, 0, 0, time.UTC)
	if got := r.Timestamp(); !got.Equal(want) {
		t.Fatalf("Timestamp = %v, want %v", got, want)
	}
}

func TestStringers(t *testing.T) {
	r := sampleRecord()
	for name, s := range map[string]string{
		"Proto":    r.Proto.String(),
		"Record":   r.String(),
		"Endpoint": r.Src.String(),
	} {
		if s == "" {
			t.Errorf("%s.String() empty", name)
		}
	}
	if ProtoUnknown.String() != "proto(0)" {
		t.Errorf("unknown proto = %q", ProtoUnknown.String())
	}
}

func BenchmarkEncodeRecord(b *testing.B) {
	var buf [RecordSize]byte
	r := sampleRecord()
	b.SetBytes(RecordSize)
	for i := 0; i < b.N; i++ {
		EncodeRecord(buf[:], r)
	}
}

func BenchmarkDecodeRecord(b *testing.B) {
	var buf [RecordSize]byte
	EncodeRecord(buf[:], sampleRecord())
	var r Record
	b.SetBytes(RecordSize)
	for i := 0; i < b.N; i++ {
		DecodeRecord(buf[:], &r)
	}
}

func BenchmarkTraceWriter(b *testing.B) {
	r := sampleRecord()
	tw, _ := NewTraceWriter(io.Discard, 1)
	b.SetBytes(RecordSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tw.Write(r)
	}
}

// ReadAll drains the remaining records through Next.
func (tr *TraceReader) ReadAll() ([]Record, error) {
	var out []Record
	for {
		var rec Record
		err := tr.Next(&rec)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}
