// Package flows assembles raw packet records into the per-window
// behavioral feature counts of Table 1 — the role Bro played in the
// paper's pipeline ("we processed the traffic traces ... using the Bro
// tool and constructed time-series for each of 6 anomaly detection
// features").
//
// The tracker is per-source: it only accounts for traffic initiated
// by the monitored host (the paper's features are "computed on a per
// source basis"). Inbound packets are used for nothing except
// existing-flow bookkeeping.
package flows

import (
	"fmt"
	"io"
	"time"

	"repro/internal/features"
	"repro/internal/netsim"
)

// Tracker turns a time-ordered packet stream from one end host into
// binned feature counts.
type Tracker struct {
	local       netsim.Addr
	binWidth    int64 // microseconds
	startMicros int64

	cur       int // current bin index
	curCounts features.Counts
	seenTCP   map[netsim.FlowKey]struct{}
	seenUDP   map[netsim.FlowKey]struct{}
	seenDNS   map[netsim.FlowKey]struct{}
	seenDest  map[netsim.Addr]struct{}
	finished  []features.Counts
	lastTime  int64
}

// NewTracker creates a tracker for the host with address local whose
// capture starts at startMicros, aggregating into binWidth windows.
func NewTracker(local netsim.Addr, binWidth time.Duration, startMicros int64) (*Tracker, error) {
	if binWidth < time.Second {
		return nil, fmt.Errorf("flows: bin width %v too small", binWidth)
	}
	t := &Tracker{
		local:       local,
		binWidth:    binWidth.Microseconds(),
		startMicros: startMicros,
	}
	t.resetBin()
	return t, nil
}

func (t *Tracker) resetBin() {
	t.curCounts = features.Counts{}
	if t.seenTCP == nil {
		t.seenTCP = make(map[netsim.FlowKey]struct{})
		t.seenUDP = make(map[netsim.FlowKey]struct{})
		t.seenDNS = make(map[netsim.FlowKey]struct{})
		t.seenDest = make(map[netsim.Addr]struct{})
		return
	}
	// Reuse the per-bin dedup maps across bins: clearing keeps the
	// allocated buckets, so a long capture stops churning the
	// allocator once it has seen its busiest window.
	clear(t.seenTCP)
	clear(t.seenUDP)
	clear(t.seenDNS)
	clear(t.seenDest)
}

// Reserve pre-allocates the finished-bin buffer for a capture of the
// given length, so Observe's bin-advance loop never regrows it.
func (t *Tracker) Reserve(bins int) {
	if bins > cap(t.finished) {
		grown := make([]features.Counts, len(t.finished), bins)
		copy(grown, t.finished)
		t.finished = grown
	}
}

// ErrOutOfOrder is wrapped into errors returned for records whose
// timestamps precede the capture start or go backwards across bins.
var ErrOutOfOrder = fmt.Errorf("flows: record out of time order")

// Observe processes one packet record. Records must be delivered in
// non-decreasing time order.
func (t *Tracker) Observe(rec netsim.Record) error {
	if rec.Time < t.startMicros {
		return fmt.Errorf("%w: record at %d before capture start %d", ErrOutOfOrder, rec.Time, t.startMicros)
	}
	if rec.Time < t.lastTime {
		return fmt.Errorf("%w: record at %d after one at %d", ErrOutOfOrder, rec.Time, t.lastTime)
	}
	t.lastTime = rec.Time
	bin := int((rec.Time - t.startMicros) / t.binWidth)
	for t.cur < bin {
		t.finished = append(t.finished, t.curCounts)
		t.resetBin()
		t.cur++
	}

	if rec.Src.Addr != t.local {
		return nil // inbound or foreign traffic: not per-source activity
	}
	key := rec.Key()
	switch rec.Proto {
	case netsim.ProtoTCP:
		if rec.Flags.IsSYN() {
			t.curCounts.TCPSYN++
			if _, ok := t.seenTCP[key]; !ok {
				t.seenTCP[key] = struct{}{}
				t.curCounts.TCP++
				if rec.Dst.Port == netsim.PortHTTP {
					t.curCounts.HTTP++
				}
				t.markDest(rec.Dst.Addr)
			}
		}
	case netsim.ProtoUDP:
		if rec.IsDNS() {
			if _, ok := t.seenDNS[key]; !ok {
				t.seenDNS[key] = struct{}{}
				t.curCounts.DNS++
				t.markDest(rec.Dst.Addr)
			}
			return nil
		}
		if _, ok := t.seenUDP[key]; !ok {
			t.seenUDP[key] = struct{}{}
			t.curCounts.UDP++
			t.markDest(rec.Dst.Addr)
		}
	}
	return nil
}

func (t *Tracker) markDest(a netsim.Addr) {
	if _, ok := t.seenDest[a]; !ok {
		t.seenDest[a] = struct{}{}
		t.curCounts.Distinct++
	}
}

// Finish closes the capture at totalBins windows and returns the
// matrix (padding trailing idle bins with zeros). The tracker must
// not be used afterwards.
func (t *Tracker) Finish(totalBins int) (*features.Matrix, error) {
	empty := features.Counts{}
	if t.cur >= totalBins && t.curCounts != empty {
		return nil, fmt.Errorf("flows: observed activity in bin %d beyond requested %d bins", t.cur, totalBins)
	}
	// Rows beyond the requested capture must be idle; verify them
	// before the conversion pass so the main loop needs no per-row
	// bounds or emptiness checks.
	for b := totalBins; b < len(t.finished); b++ {
		if t.finished[b] != empty {
			return nil, fmt.Errorf("flows: observed activity in bin %d beyond requested %d bins", b, totalBins)
		}
	}
	m := features.NewMatrix(time.Duration(t.binWidth)*time.Microsecond, t.startMicros, totalBins)
	n := len(t.finished)
	if n > totalBins {
		n = totalBins
	}
	for b := 0; b < n; b++ {
		m.Rows[b] = t.finished[b].AsVector()
	}
	if t.cur < totalBins {
		m.Rows[t.cur] = t.curCounts.AsVector()
	}
	return m, nil
}

// ExtractTrace is a convenience that reads an entire .etr trace
// through a tracker. The host address is the one used by the
// synthetic population for the trace's hostID-th user; callers with
// other address plans should drive Observe directly.
func ExtractTrace(tr *netsim.TraceReader, local netsim.Addr, binWidth time.Duration, startMicros int64, totalBins int) (*features.Matrix, error) {
	t, err := NewTracker(local, binWidth, startMicros)
	if err != nil {
		return nil, err
	}
	t.Reserve(totalBins)
	var rec netsim.Record
	for {
		err := tr.Next(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := t.Observe(rec); err != nil {
			return nil, err
		}
	}
	return t.Finish(totalBins)
}
