// Package netsim models the packet stream an end-host capture tool
// (the paper used a windump wrapper) would deliver to the HIDS
// pipeline, plus a compact binary on-disk trace format.
//
// The design follows gopacket's conventions where they apply: packet
// addressing is expressed through small, hashable value types
// (Endpoint, FlowKey) that can be used directly as map keys, and the
// decode path is allocation-free (DecodeRecord fills a caller-owned
// struct).
package netsim

import (
	"fmt"
	"time"
)

// Proto identifies the transport protocol of a packet record.
type Proto uint8

// Transport protocols tracked by the pipeline. Only TCP and UDP
// matter for the paper's six features; others are carried through and
// ignored by the feature extractor.
const (
	ProtoUnknown Proto = 0
	ProtoTCP     Proto = 6
	ProtoUDP     Proto = 17
	ProtoICMP    Proto = 1
)

// String returns the conventional protocol name.
func (p Proto) String() string {
	switch p {
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	case ProtoICMP:
		return "icmp"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// TCPFlags is the TCP flag byte (FIN, SYN, RST, PSH, ACK, URG).
type TCPFlags uint8

// TCP flag bits, matching the on-the-wire bit positions.
const (
	FlagFIN TCPFlags = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
	FlagURG
)

// Has reports whether all bits in mask are set.
func (f TCPFlags) Has(mask TCPFlags) bool { return f&mask == mask }

// IsSYN reports whether the packet is an initial SYN (SYN set, ACK
// clear) — the event counted by the num-TCP-SYN feature and used to
// detect outbound connection attempts.
func (f TCPFlags) IsSYN() bool { return f.Has(FlagSYN) && !f.Has(FlagACK) }

// String renders the set flags in tcpdump style, e.g. "S", "SA", "F".
func (f TCPFlags) String() string {
	if f == 0 {
		return "."
	}
	var b []byte
	for _, fl := range []struct {
		bit TCPFlags
		ch  byte
	}{
		{FlagSYN, 'S'}, {FlagACK, 'A'}, {FlagFIN, 'F'},
		{FlagRST, 'R'}, {FlagPSH, 'P'}, {FlagURG, 'U'},
	} {
		if f.Has(fl.bit) {
			b = append(b, fl.ch)
		}
	}
	return string(b)
}

// Addr is an IPv4 address as a comparable array (usable as a map
// key, like gopacket's fixed-size Endpoint raw bytes).
type Addr [4]byte

// String renders dotted-quad notation.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// AddrFrom4 builds an Addr from four octets.
func AddrFrom4(a, b, c, d byte) Addr { return Addr{a, b, c, d} }

// AddrFromUint32 builds an Addr from a big-endian uint32, convenient
// for synthesizing distinct destinations.
func AddrFromUint32(v uint32) Addr {
	return Addr{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

// Endpoint is one side of a conversation: address plus transport
// port. It is a comparable value type usable as a map key.
type Endpoint struct {
	Addr Addr
	Port uint16
}

// String renders "a.b.c.d:port".
func (e Endpoint) String() string { return fmt.Sprintf("%s:%d", e.Addr, e.Port) }

// FlowKey identifies a unidirectional five-tuple flow. It is
// comparable and usable as a map key.
type FlowKey struct {
	Proto    Proto
	Src, Dst Endpoint
}

// Well-known destination ports used for feature classification,
// matching the paper's Bro-derived features ("TCP connections on port
// 80", DNS connections).
const (
	PortDNS   = 53
	PortHTTP  = 80
	PortHTTPS = 443
)

// Record is one captured packet header: everything the behavioral
// feature extractor needs, nothing more. It is the unit of the .etr
// trace format.
type Record struct {
	// Time is the capture timestamp in microseconds since the Unix
	// epoch (the resolution of classic pcap).
	Time int64
	// Src and Dst are the packet's transport endpoints.
	Src, Dst Endpoint
	// Proto is the transport protocol.
	Proto Proto
	// Flags carries TCP flags; zero for non-TCP packets.
	Flags TCPFlags
	// Length is the IP-layer packet length in bytes.
	Length uint16
}

// Timestamp returns the capture time as a time.Time in UTC.
func (r Record) Timestamp() time.Time {
	return time.UnixMicro(r.Time).UTC()
}

// Key returns the unidirectional flow key of the packet.
func (r Record) Key() FlowKey {
	return FlowKey{Proto: r.Proto, Src: r.Src, Dst: r.Dst}
}

// IsDNS reports whether the packet is addressed to the DNS port (UDP
// or TCP port 53), the definition behind num-DNS-connections.
func (r Record) IsDNS() bool { return r.Dst.Port == PortDNS }

// String renders a one-line tcpdump-ish summary.
func (r Record) String() string {
	return fmt.Sprintf("%s %s %s->%s flags=%s len=%d",
		r.Timestamp().Format("15:04:05.000000"), r.Proto, r.Src, r.Dst, r.Flags, r.Length)
}
