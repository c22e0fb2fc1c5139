package trace

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/features"
	"repro/internal/netsim"
	"repro/internal/xrand"
)

// Well-known infrastructure addresses in the synthetic enterprise.
var (
	// DNSServerAddr is the enterprise resolver every host queries.
	DNSServerAddr = netsim.AddrFrom4(10, 0, 0, 2)
)

// destAddr maps a destination-pool index to a stable public IP,
// unique within a user's pool and disjoint from enterprise space.
func (u *User) destAddr(idx int) netsim.Addr {
	return netsim.AddrFromUint32(0x5D000000 | uint32(u.ID%64)<<18 | uint32(idx))
}

// emitSeed returns the seed of the timing/port stream of (user,
// bin): a separate stream from the count-determining draws, so the
// packet realization cannot perturb the counts.
func (u *User) emitSeed(bin int) uint64 {
	return u.cfg.Seed ^ uint64(u.ID+1)*0x9e3779b97f4a7c15 ^ uint64(bin+1)*0xa0761d6478bd642f
}

// EmitBin materializes the packet records realizing exactly the
// counts the sampler draws for (user, bin), in non-decreasing time
// order, and passes each to emit. It returns the number of records
// produced. An offline bin produces none.
//
// The realization per connection:
//
//	TCP: SYN out (+retransmitted SYNs), SYN-ACK in, ACK out, one data
//	     packet each way, FIN out. HTTP connections use dst port 80,
//	     the rest 443 or a high port.
//	UDP: 1-3 datagrams out, one in.
//	DNS: query out to the enterprise resolver, response in.
func (u *User) EmitBin(bin int, emit func(netsim.Record)) int {
	s := u.sample(bin)
	c := s.counts
	if c.TCP == 0 && c.UDP == 0 && c.DNS == 0 {
		return 0
	}
	n, _ := u.emitSampled(xrand.New(u.emitSeed(bin)), bin, c, s.destIdx, s.synRetries, nil, emit)
	return n
}

// emitSampled realizes one sampled bin into packet records, appending
// to recs (a reusable scratch buffer), emitting each record in time
// order, and returning the record count plus the grown buffer. r must
// be seeded to the (user, bin) emit stream; destIdx and synRetries
// are the realization drawn by sample/sampleInto. Shared by
// User.EmitBin and Generator.EmitBin, which must produce identical
// records.
func (u *User) emitSampled(r *xrand.Source, bin int, c features.Counts, destIdx, synRetries []int, recs []netsim.Record, emit func(netsim.Record)) (int, []netsim.Record) {
	binStart := u.BinStartMicros(bin)
	width := u.cfg.BinWidth.Microseconds()
	add := func(rec netsim.Record) { recs = append(recs, rec) }

	port := func(seq int) uint16 { return uint16(10000 + seq%50000) }
	seq := 0

	// TCP connections (the first c.HTTP of them are HTTP).
	for i := 0; i < c.TCP; i++ {
		t0 := binStart + int64(r.Float64()*float64(width-5_000_000))
		dst := netsim.Endpoint{Addr: u.destAddr(destIdx[i])}
		switch {
		case i < c.HTTP:
			dst.Port = netsim.PortHTTP
		case r.Float64() < 0.6:
			dst.Port = netsim.PortHTTPS
		default:
			dst.Port = uint16(1024 + r.Intn(50000))
		}
		src := netsim.Endpoint{Addr: u.Addr, Port: port(seq)}
		seq++
		flow := func(t int64, flags netsim.TCPFlags, length uint16) netsim.Record {
			return netsim.Record{Time: t, Src: src, Dst: dst,
				Proto: netsim.ProtoTCP, Flags: flags, Length: length}
		}
		reply := func(t int64, flags netsim.TCPFlags, length uint16) netsim.Record {
			return netsim.Record{Time: t, Src: dst, Dst: src,
				Proto: netsim.ProtoTCP, Flags: flags, Length: length}
		}
		add(flow(t0, netsim.FlagSYN, 60))
		for k := 0; k < synRetries[i]; k++ {
			add(flow(t0+int64(k+1)*1_000_000, netsim.FlagSYN, 60))
		}
		est := t0 + int64(synRetries[i])*1_000_000
		add(reply(est+20_000, netsim.FlagSYN|netsim.FlagACK, 60))
		add(flow(est+40_000, netsim.FlagACK, 52))
		add(flow(est+60_000, netsim.FlagACK|netsim.FlagPSH, uint16(200+r.Intn(1200))))
		add(reply(est+90_000, netsim.FlagACK|netsim.FlagPSH, uint16(200+r.Intn(1200))))
		add(flow(est+120_000+int64(r.Intn(2_000_000)), netsim.FlagFIN|netsim.FlagACK, 52))
	}

	// UDP connections.
	for i := 0; i < c.UDP; i++ {
		t0 := binStart + int64(r.Float64()*float64(width-2_000_000))
		dst := netsim.Endpoint{
			Addr: u.destAddr(destIdx[c.TCP+i]),
			Port: uint16(1024 + r.Intn(60000)),
		}
		if dst.Port == netsim.PortDNS {
			dst.Port++ // keep non-DNS UDP off port 53
		}
		src := netsim.Endpoint{Addr: u.Addr, Port: port(seq)}
		seq++
		n := 1 + r.Intn(3)
		for k := 0; k < n; k++ {
			add(netsim.Record{Time: t0 + int64(k)*50_000, Src: src, Dst: dst,
				Proto: netsim.ProtoUDP, Length: uint16(80 + r.Intn(400))})
		}
		add(netsim.Record{Time: t0 + 70_000, Src: dst, Dst: src,
			Proto: netsim.ProtoUDP, Length: uint16(80 + r.Intn(400))})
	}

	// DNS queries to the enterprise resolver.
	dnsDst := netsim.Endpoint{Addr: DNSServerAddr, Port: netsim.PortDNS}
	for i := 0; i < c.DNS; i++ {
		t0 := binStart + int64(r.Float64()*float64(width-1_000_000))
		src := netsim.Endpoint{Addr: u.Addr, Port: port(seq)}
		seq++
		add(netsim.Record{Time: t0, Src: src, Dst: dnsDst,
			Proto: netsim.ProtoUDP, Length: uint16(60 + r.Intn(60))})
		add(netsim.Record{Time: t0 + 15_000, Src: dnsDst, Dst: src,
			Proto: netsim.ProtoUDP, Length: uint16(90 + r.Intn(300))})
	}

	sort.Slice(recs, func(i, j int) bool { return recs[i].Time < recs[j].Time })
	for _, rec := range recs {
		emit(rec)
	}
	return len(recs), recs
}

// WriteTrace streams the user's packets for bins [fromBin, toBin)
// into w as an .etr trace. It returns the number of records written.
func (u *User) WriteTrace(w io.Writer, fromBin, toBin int) (int64, error) {
	if fromBin < 0 || toBin > u.Bins() || fromBin > toBin {
		return 0, fmt.Errorf("trace: bin range [%d, %d) outside [0, %d)", fromBin, toBin, u.Bins())
	}
	tw, err := netsim.NewTraceWriter(w, uint32(u.ID))
	if err != nil {
		return 0, err
	}
	// One batch generator serves every bin: the week state, Zipf rank
	// table and record scratch amortize across the whole trace.
	g := u.AcquireGenerator()
	defer g.Release()
	var writeErr error
	for b := fromBin; b < toBin && writeErr == nil; b++ {
		g.EmitBin(b, func(rec netsim.Record) {
			if writeErr == nil {
				writeErr = tw.Write(rec)
			}
		})
	}
	if writeErr != nil {
		return tw.Count(), writeErr
	}
	if err := tw.Flush(); err != nil {
		return tw.Count(), err
	}
	return tw.Count(), nil
}
