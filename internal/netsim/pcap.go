package netsim

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// PcapWriter exports packet records as a classic libpcap capture file
// (LINKTYPE_RAW: packets begin at the IPv4 header), so synthesized
// enterprise traces open directly in tcpdump and Wireshark. IPv4,
// TCP and UDP headers are fully synthesized, including checksums.
//
// Payload bytes beyond the headers are zero-filled up to each
// record's Length (truncated at the snap length), which keeps files
// compact while preserving the on-the-wire sizes tools display.
type PcapWriter struct {
	w       *bufio.Writer
	snapLen uint32
	count   int64
	err     error
	seq     uint32
}

// pcap constants
const (
	pcapMagic       = 0xa1b2c3d4 // microsecond-timestamp magic
	pcapVersionMaj  = 2
	pcapVersionMin  = 4
	pcapLinkTypeRaw = 101 // LINKTYPE_RAW: raw IPv4/IPv6
	// DefaultSnapLen truncates stored packets; 256 bytes keeps full
	// headers plus a little payload.
	DefaultSnapLen = 256
)

// NewPcapWriter writes the pcap global header. snapLen 0 selects
// DefaultSnapLen.
func NewPcapWriter(w io.Writer, snapLen uint32) (*PcapWriter, error) {
	if snapLen == 0 {
		snapLen = DefaultSnapLen
	}
	if snapLen < 40 {
		return nil, fmt.Errorf("netsim: pcap snap length %d below smallest header stack", snapLen)
	}
	bw := bufio.NewWriterSize(w, 64<<10)
	var hdr [24]byte
	le := binary.LittleEndian
	le.PutUint32(hdr[0:4], pcapMagic)
	le.PutUint16(hdr[4:6], pcapVersionMaj)
	le.PutUint16(hdr[6:8], pcapVersionMin)
	// thiszone, sigfigs = 0
	le.PutUint32(hdr[16:20], snapLen)
	le.PutUint32(hdr[20:24], pcapLinkTypeRaw)
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("netsim: writing pcap header: %w", err)
	}
	return &PcapWriter{w: bw, snapLen: snapLen}, nil
}

// Write appends one record as a raw-IP pcap packet.
func (pw *PcapWriter) Write(r Record) error {
	if pw.err != nil {
		return pw.err
	}
	pkt := pw.buildPacket(r)
	origLen := int(r.Length)
	if origLen < len(pkt) {
		origLen = len(pkt)
	}
	inclLen := len(pkt)
	if uint32(inclLen) > pw.snapLen {
		inclLen = int(pw.snapLen)
	}
	var rec [16]byte
	le := binary.LittleEndian
	le.PutUint32(rec[0:4], uint32(r.Time/1_000_000))
	le.PutUint32(rec[4:8], uint32(r.Time%1_000_000))
	le.PutUint32(rec[8:12], uint32(inclLen))
	le.PutUint32(rec[12:16], uint32(origLen))
	if _, err := pw.w.Write(rec[:]); err != nil {
		pw.err = fmt.Errorf("netsim: writing pcap record header: %w", err)
		return pw.err
	}
	if _, err := pw.w.Write(pkt[:inclLen]); err != nil {
		pw.err = fmt.Errorf("netsim: writing pcap packet: %w", err)
		return pw.err
	}
	pw.count++
	return nil
}

// buildPacket synthesizes IPv4 + transport headers plus zero payload
// up to the record length (capped at the snap length).
func (pw *PcapWriter) buildPacket(r Record) []byte {
	var transport []byte
	switch r.Proto {
	case ProtoTCP:
		transport = pw.tcpHeader(r)
	case ProtoUDP:
		transport = pw.udpHeader(r)
	default:
		transport = nil
	}
	headerLen := 20 + len(transport)
	total := int(r.Length)
	if total < headerLen {
		total = headerLen
	}
	stored := total
	if uint32(stored) > pw.snapLen {
		stored = int(pw.snapLen)
	}
	pkt := make([]byte, stored)
	ip := pkt[0:20]
	ip[0] = 0x45 // v4, 20-byte header
	binary.BigEndian.PutUint16(ip[2:4], uint16(total))
	binary.BigEndian.PutUint16(ip[4:6], uint16(pw.seq))
	pw.seq++
	ip[8] = 64 // TTL
	ip[9] = byte(r.Proto)
	copy(ip[12:16], r.Src.Addr[:])
	copy(ip[16:20], r.Dst.Addr[:])
	binary.BigEndian.PutUint16(ip[10:12], checksum(ip))
	copy(pkt[20:], transport)
	return pkt
}

// tcpHeader builds a 20-byte TCP header with a valid checksum over
// the header alone (payload is zeros, which contribute nothing).
func (pw *PcapWriter) tcpHeader(r Record) []byte {
	h := make([]byte, 20)
	binary.BigEndian.PutUint16(h[0:2], r.Src.Port)
	binary.BigEndian.PutUint16(h[2:4], r.Dst.Port)
	binary.BigEndian.PutUint32(h[4:8], pw.seq*1469) // arbitrary but stable
	h[12] = 5 << 4                                  // data offset: 5 words
	h[13] = byte(r.Flags)
	binary.BigEndian.PutUint16(h[14:16], 65535) // window
	binary.BigEndian.PutUint16(h[16:18], tcpUDPChecksum(r, h, len(h)))
	return h
}

// udpHeader builds an 8-byte UDP header.
func (pw *PcapWriter) udpHeader(r Record) []byte {
	h := make([]byte, 8)
	binary.BigEndian.PutUint16(h[0:2], r.Src.Port)
	binary.BigEndian.PutUint16(h[2:4], r.Dst.Port)
	udpLen := int(r.Length) - 20
	if udpLen < 8 {
		udpLen = 8
	}
	binary.BigEndian.PutUint16(h[4:6], uint16(udpLen))
	binary.BigEndian.PutUint16(h[6:8], tcpUDPChecksum(r, h, udpLen))
	return h
}

// tcpUDPChecksum computes the transport checksum over the IPv4
// pseudo-header plus the header bytes (the zero payload contributes
// nothing).
func tcpUDPChecksum(r Record, transport []byte, length int) uint16 {
	pseudo := make([]byte, 12+len(transport))
	copy(pseudo[0:4], r.Src.Addr[:])
	copy(pseudo[4:8], r.Dst.Addr[:])
	pseudo[9] = byte(r.Proto)
	binary.BigEndian.PutUint16(pseudo[10:12], uint16(length))
	copy(pseudo[12:], transport)
	return checksum(pseudo)
}

// checksum is the Internet checksum (RFC 1071).
func checksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// Count returns the packets written.
func (pw *PcapWriter) Count() int64 { return pw.count }

// Flush flushes buffered data.
func (pw *PcapWriter) Flush() error {
	if pw.err != nil {
		return pw.err
	}
	if err := pw.w.Flush(); err != nil {
		pw.err = fmt.Errorf("netsim: flushing pcap: %w", err)
	}
	return pw.err
}
