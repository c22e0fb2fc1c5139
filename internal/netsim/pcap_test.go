package netsim

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"testing"
)

func TestPcapRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	pw, err := NewPcapWriter(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		sampleRecord(),
		{
			Time:  sampleRecord().Time + 1500,
			Src:   Endpoint{Addr: AddrFrom4(10, 1, 2, 3), Port: 5353},
			Dst:   Endpoint{Addr: AddrFrom4(10, 0, 0, 2), Port: 53},
			Proto: ProtoUDP, Length: 90,
		},
	}
	for _, r := range recs {
		if err := pw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if pw.Count() != 2 {
		t.Fatalf("Count = %d", pw.Count())
	}
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}

	pr, err := NewPcapReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range recs {
		pkt, err := pr.Next()
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if pkt.TimeMicros != want.Time {
			t.Fatalf("packet %d time %d, want %d", i, pkt.TimeMicros, want.Time)
		}
		got, err := DecodeIPv4(pkt.Data)
		if err != nil {
			t.Fatal(err)
		}
		if got.Src != want.Src || got.Dst != want.Dst || got.Proto != want.Proto {
			t.Fatalf("packet %d: got %+v, want %+v", i, got, want)
		}
		if want.Proto == ProtoTCP && got.Flags != want.Flags {
			t.Fatalf("packet %d flags %v, want %v", i, got.Flags, want.Flags)
		}
	}
	if _, err := pr.Next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestPcapGlobalHeader(t *testing.T) {
	var buf bytes.Buffer
	pw, _ := NewPcapWriter(&buf, 128)
	_ = pw.Flush()
	b := buf.Bytes()
	if len(b) != 24 {
		t.Fatalf("header length %d", len(b))
	}
	le := binary.LittleEndian
	if le.Uint32(b[0:4]) != 0xa1b2c3d4 {
		t.Fatal("bad magic")
	}
	if le.Uint16(b[4:6]) != 2 || le.Uint16(b[6:8]) != 4 {
		t.Fatal("bad version")
	}
	if le.Uint32(b[16:20]) != 128 {
		t.Fatal("bad snaplen")
	}
	if le.Uint32(b[20:24]) != 101 {
		t.Fatal("bad link type")
	}
}

func TestPcapIPChecksumValid(t *testing.T) {
	var buf bytes.Buffer
	pw, _ := NewPcapWriter(&buf, 0)
	_ = pw.Write(sampleRecord())
	_ = pw.Flush()
	pr, _ := NewPcapReader(bytes.NewReader(buf.Bytes()))
	pkt, err := pr.Next()
	if err != nil {
		t.Fatal(err)
	}
	// Recomputing the IPv4 header checksum over the stored header
	// (including the checksum field) must yield zero.
	ip := pkt.Data[0:20]
	var sum uint32
	for i := 0; i < 20; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(ip[i : i+2]))
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	if uint16(sum) != 0xffff {
		t.Fatalf("IPv4 checksum invalid: folded sum %#x", sum)
	}
}

func TestPcapSnapLenTruncates(t *testing.T) {
	var buf bytes.Buffer
	pw, err := NewPcapWriter(&buf, 48)
	if err != nil {
		t.Fatal(err)
	}
	big := sampleRecord()
	big.Length = 1500
	_ = pw.Write(big)
	_ = pw.Flush()
	pr, _ := NewPcapReader(bytes.NewReader(buf.Bytes()))
	pkt, err := pr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkt.Data) != 48 {
		t.Fatalf("stored %d bytes, want 48", len(pkt.Data))
	}
	if pkt.OrigLen != 1500 {
		t.Fatalf("orig length %d, want 1500", pkt.OrigLen)
	}
}

func TestPcapWriterRejectsTinySnapLen(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewPcapWriter(&buf, 10); err == nil {
		t.Fatal("snap length 10 accepted")
	}
}

func TestPcapReaderRejectsGarbage(t *testing.T) {
	if _, err := NewPcapReader(bytes.NewReader(make([]byte, 24))); err == nil {
		t.Fatal("zero header accepted")
	}
	if _, err := NewPcapReader(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Fatal("short header accepted")
	}
}

func TestDecodeIPv4Errors(t *testing.T) {
	if _, err := DecodeIPv4(nil); err == nil {
		t.Fatal("nil packet accepted")
	}
	if _, err := DecodeIPv4(make([]byte, 19)); err == nil {
		t.Fatal("short packet accepted")
	}
	bad := make([]byte, 20)
	bad[0] = 0x60 // IPv6 version nibble
	if _, err := DecodeIPv4(bad); err == nil {
		t.Fatal("IPv6 version accepted")
	}
	truncTCP := make([]byte, 22)
	truncTCP[0] = 0x45
	truncTCP[9] = byte(ProtoTCP)
	if _, err := DecodeIPv4(truncTCP); err == nil {
		t.Fatal("truncated TCP accepted")
	}
}

func TestPcapICMPPassThrough(t *testing.T) {
	// Non-TCP/UDP protocols are written with an IP header only.
	var buf bytes.Buffer
	pw, _ := NewPcapWriter(&buf, 0)
	r := sampleRecord()
	r.Proto = ProtoICMP
	r.Flags = 0
	if err := pw.Write(r); err != nil {
		t.Fatal(err)
	}
	_ = pw.Flush()
	pr, _ := NewPcapReader(bytes.NewReader(buf.Bytes()))
	pkt, err := pr.Next()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeIPv4(pkt.Data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Proto != ProtoICMP || got.Src.Addr != r.Src.Addr {
		t.Fatalf("got %+v", got)
	}
}

func BenchmarkPcapWrite(b *testing.B) {
	pw, _ := NewPcapWriter(io.Discard, 0)
	r := sampleRecord()
	b.SetBytes(int64(r.Length))
	for i := 0; i < b.N; i++ {
		_ = pw.Write(r)
	}
}

// PcapPacket is one decoded packet from a pcap file.
type PcapPacket struct {
	TimeMicros int64
	OrigLen    int
	Data       []byte // raw IP packet, possibly truncated at snap length
}

// PcapReader reads classic little-endian pcap files written by
// PcapWriter (LINKTYPE_RAW, microsecond timestamps): the oracle the
// round-trip tests read the writer's output back with.
type PcapReader struct {
	r       *bufio.Reader
	snapLen uint32
}

// NewPcapReader validates the global header.
func NewPcapReader(r io.Reader) (*PcapReader, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var hdr [24]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("netsim: reading pcap header: %w", err)
	}
	le := binary.LittleEndian
	if le.Uint32(hdr[0:4]) != pcapMagic {
		return nil, fmt.Errorf("netsim: not a little-endian microsecond pcap")
	}
	if lt := le.Uint32(hdr[20:24]); lt != pcapLinkTypeRaw {
		return nil, fmt.Errorf("netsim: unsupported pcap link type %d", lt)
	}
	return &PcapReader{r: br, snapLen: le.Uint32(hdr[16:20])}, nil
}

// Next reads the next packet; io.EOF signals a clean end.
func (pr *PcapReader) Next() (PcapPacket, error) {
	var rec [16]byte
	if _, err := io.ReadFull(pr.r, rec[:]); err != nil {
		if err == io.EOF {
			return PcapPacket{}, io.EOF
		}
		return PcapPacket{}, fmt.Errorf("netsim: reading pcap record header: %w", err)
	}
	le := binary.LittleEndian
	inclLen := le.Uint32(rec[8:12])
	if inclLen > pr.snapLen {
		return PcapPacket{}, fmt.Errorf("netsim: pcap record of %d bytes exceeds snap length %d", inclLen, pr.snapLen)
	}
	data := make([]byte, inclLen)
	if _, err := io.ReadFull(pr.r, data); err != nil {
		return PcapPacket{}, fmt.Errorf("netsim: reading pcap packet: %w", err)
	}
	return PcapPacket{
		TimeMicros: int64(le.Uint32(rec[0:4]))*1_000_000 + int64(le.Uint32(rec[4:8])),
		OrigLen:    int(le.Uint32(rec[12:16])),
		Data:       data,
	}, nil
}

// DecodeIPv4 parses the record-relevant fields back out of a raw IP
// packet produced by PcapWriter.
func DecodeIPv4(data []byte) (Record, error) {
	if len(data) < 20 || data[0]>>4 != 4 {
		return Record{}, fmt.Errorf("netsim: not an IPv4 packet")
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl < 20 || len(data) < ihl {
		return Record{}, fmt.Errorf("netsim: bad IPv4 header length %d", ihl)
	}
	var r Record
	r.Length = binary.BigEndian.Uint16(data[2:4])
	r.Proto = Proto(data[9])
	copy(r.Src.Addr[:], data[12:16])
	copy(r.Dst.Addr[:], data[16:20])
	rest := data[ihl:]
	switch r.Proto {
	case ProtoTCP:
		if len(rest) < 20 {
			return Record{}, fmt.Errorf("netsim: truncated TCP header")
		}
		r.Src.Port = binary.BigEndian.Uint16(rest[0:2])
		r.Dst.Port = binary.BigEndian.Uint16(rest[2:4])
		r.Flags = TCPFlags(rest[13])
	case ProtoUDP:
		if len(rest) < 8 {
			return Record{}, fmt.Errorf("netsim: truncated UDP header")
		}
		r.Src.Port = binary.BigEndian.Uint16(rest[0:2])
		r.Dst.Port = binary.BigEndian.Uint16(rest[2:4])
	}
	return r, nil
}
