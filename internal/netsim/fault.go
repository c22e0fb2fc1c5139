package netsim

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/xrand"
)

// Seeded fault injection over the in-process fabric.
//
// A FaultNetwork wraps a MemNetwork and applies a declarative
// FaultPlan to every connection a host dials through it: per-write
// drop and reset probabilities, fixed delay plus seeded jitter, and
// scheduled offline windows (partitions over host sets, per-host
// crash/restart windows). Time is the fleet's logical tick (a Ticker,
// usually the fleet barrier clock), never the wall clock, so a fault
// schedule is a pure function of (plan, seed, per-host connection
// index, per-connection write index, tick) — the same plan and seed
// reproduce the same fault schedule byte for byte, regardless of
// goroutine interleaving or machine speed.
//
// Faults act on the dialer's edge only: probabilistic faults fire on
// the host's writes, offline windows refuse the host's dials and
// sever the host's reads and writes. Severing closes the underlying
// pipe, so the un-wrapped peer (the console) observes an ordinary
// EOF/closed-pipe failure — exactly what a kernel would deliver.
//
// The delivery invariant the protocol layers rely on: the byte stream
// a peer receives from a FaultConn is always a strict prefix of the
// byte stream written to it. A dropped write is swallowed whole and
// immediately severs the connection (the writer sees success, then a
// dead link — a lost segment after the local send buffer accepted
// it); a reset delivers a seeded-length prefix of the write and
// severs. Nothing is ever reordered, duplicated, or corrupted
// in-stream, so a length-prefixed codec on top either decodes whole
// frames or fails cleanly — never a torn frame. fuzz_test.go pins
// this.

// Ticker supplies logical time to a FaultNetwork. The fleet's barrier
// clock implements it; tests use TickerFunc. A nil Ticker pins time
// at tick 0.
type Ticker interface {
	Tick() int
}

// TickerFunc adapts a function to the Ticker interface.
type TickerFunc func() int

// Tick implements Ticker.
func (f TickerFunc) Tick() int { return f() }

// Partition takes a set of hosts offline for a window of logical
// ticks: their dials are refused and their established connections
// sever on the next read or write. An empty host set partitions every
// host (a console-side blackout).
type Partition struct {
	// Hosts lists the partitioned host indices; empty means all hosts.
	Hosts []int
	// From is the first tick of the window (inclusive).
	From int
	// To is the first tick after the window (exclusive); negative
	// means the partition never heals.
	To int
}

// CrashWindow models one agent's process crash and restart: the host
// is offline for ticks [From, To). Negative To means the host never
// restarts.
type CrashWindow struct {
	Host int
	From int
	To   int
}

// FaultPlan declares a deterministic fault schedule. The zero value
// is a perfect network.
type FaultPlan struct {
	// Seed drives every probabilistic decision (drops, resets, reset
	// prefix lengths, jitter). Independent per-connection streams are
	// derived from it, so decision sequences do not depend on how
	// connections interleave.
	Seed uint64

	// DropProb is the per-write probability that the write is
	// swallowed (reported as successful) and the connection severed.
	DropProb float64
	// ResetProb is the per-write probability that the connection is
	// reset mid-stream: a seeded-length prefix of the write is
	// delivered, then the connection severs with an error.
	ResetProb float64
	// Delay is added to every write while probabilistic faults are
	// active; Jitter adds a seeded uniform extra in [0, Jitter).
	Delay  time.Duration
	Jitter time.Duration
	// HealTick, when positive, stops all probabilistic faults (drops,
	// resets, delay, jitter) once the tick reaches it; zero means they
	// run forever. Note that probabilistic faults never permanently
	// sever a retried protocol — only offline windows can — so plans
	// without permanent windows converge even with HealTick zero.
	HealTick int

	// Partitions and Crashes schedule offline windows.
	Partitions []Partition
	Crashes    []CrashWindow
}

// Errors surfaced by the fault layer.
var (
	// ErrHostOffline reports a dial or I/O attempt inside an offline
	// window (partition or crash).
	ErrHostOffline = errors.New("netsim: host offline")
	// ErrFaultReset reports a seeded mid-stream connection reset.
	ErrFaultReset = errors.New("netsim: connection reset by fault plan")
	// ErrSevered reports I/O on a connection a fault already severed.
	ErrSevered = errors.New("netsim: connection severed by fault plan")
)

// Validate checks the plan's probabilities and windows.
func (p *FaultPlan) Validate() error {
	if p == nil {
		return nil
	}
	if p.DropProb < 0 || p.DropProb > 1 {
		return fmt.Errorf("netsim: DropProb %v outside [0, 1]", p.DropProb)
	}
	if p.ResetProb < 0 || p.ResetProb > 1 {
		return fmt.Errorf("netsim: ResetProb %v outside [0, 1]", p.ResetProb)
	}
	if p.DropProb+p.ResetProb > 1 {
		return fmt.Errorf("netsim: DropProb+ResetProb %v exceeds 1", p.DropProb+p.ResetProb)
	}
	if p.Delay < 0 || p.Jitter < 0 {
		return fmt.Errorf("netsim: negative delay or jitter")
	}
	if p.HealTick < 0 {
		return fmt.Errorf("netsim: negative HealTick %d", p.HealTick)
	}
	for i, w := range p.Partitions {
		if w.From < 0 {
			return fmt.Errorf("netsim: partition %d starts at negative tick %d", i, w.From)
		}
		if w.To >= 0 && w.To <= w.From {
			return fmt.Errorf("netsim: partition %d window [%d, %d) is empty", i, w.From, w.To)
		}
		for _, h := range w.Hosts {
			if h < 0 {
				return fmt.Errorf("netsim: partition %d lists negative host %d", i, h)
			}
		}
	}
	for i, w := range p.Crashes {
		if w.Host < 0 {
			return fmt.Errorf("netsim: crash %d on negative host %d", i, w.Host)
		}
		if w.From < 0 {
			return fmt.Errorf("netsim: crash %d starts at negative tick %d", i, w.From)
		}
		if w.To >= 0 && w.To <= w.From {
			return fmt.Errorf("netsim: crash %d window [%d, %d) is empty", i, w.From, w.To)
		}
	}
	return nil
}

// Heals reports whether every offline window eventually ends. A
// healing plan may still run probabilistic faults forever (see
// HealTick): retried protocols make progress through those, so only
// permanent offline windows preclude convergence with a fault-free
// run.
func (p *FaultPlan) Heals() bool {
	if p == nil {
		return true
	}
	for _, w := range p.Partitions {
		if w.To < 0 {
			return false
		}
	}
	for _, w := range p.Crashes {
		if w.To < 0 {
			return false
		}
	}
	return true
}

// OfflineAt reports whether host is inside an offline window at tick.
func (p *FaultPlan) OfflineAt(host, tick int) bool {
	if p == nil {
		return false
	}
	for _, w := range p.Partitions {
		if tick >= w.From && (w.To < 0 || tick < w.To) && w.covers(host) {
			return true
		}
	}
	for _, w := range p.Crashes {
		if w.Host == host && tick >= w.From && (w.To < 0 || tick < w.To) {
			return true
		}
	}
	return false
}

func (w Partition) covers(host int) bool {
	if len(w.Hosts) == 0 {
		return true
	}
	for _, h := range w.Hosts {
		if h == host {
			return true
		}
	}
	return false
}

// PermanentLoss reports whether host goes offline forever: ok is true
// when some never-healing window covers it, from is the earliest such
// window's start tick, and byPartition distinguishes a partition from
// a crash (a crash wins a tie — the process is gone either way).
func (p *FaultPlan) PermanentLoss(host int) (from int, byPartition, ok bool) {
	if p == nil {
		return 0, false, false
	}
	for _, w := range p.Crashes {
		if w.Host == host && w.To < 0 && (!ok || w.From <= from) {
			from, byPartition, ok = w.From, false, true
		}
	}
	for _, w := range p.Partitions {
		if w.To < 0 && w.covers(host) && (!ok || w.From < from) {
			from, byPartition, ok = w.From, true, true
		}
	}
	return from, byPartition, ok
}

// injecting reports whether probabilistic faults are active at tick.
func (p *FaultPlan) injecting(tick int) bool {
	if p.DropProb == 0 && p.ResetProb == 0 && p.Delay == 0 && p.Jitter == 0 {
		return false
	}
	return p.HealTick <= 0 || tick < p.HealTick
}

// FaultNetwork applies a FaultPlan to connections dialed through it.
// Listen passes through to the underlying MemNetwork (the console's
// edge is not faulted; the fault model is the agents' access network).
type FaultNetwork struct {
	mem    *MemNetwork
	plan   FaultPlan
	ticker Ticker

	mu    sync.Mutex
	conns map[int]uint64 // successful dials per host: the RNG stream index
}

// NewFaultNetwork wraps mem with plan. ticker supplies logical time
// (nil pins tick 0).
func NewFaultNetwork(mem *MemNetwork, plan FaultPlan, ticker Ticker) (*FaultNetwork, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &FaultNetwork{
		mem:    mem,
		plan:   plan,
		ticker: ticker,
		conns:  make(map[int]uint64),
	}, nil
}

// Listen binds name on the underlying network, unfaulted.
func (n *FaultNetwork) Listen(name string) (*MemListener, error) {
	return n.mem.Listen(name)
}

func (n *FaultNetwork) tick() int {
	if n.ticker == nil {
		return 0
	}
	return n.ticker.Tick()
}

// Dial connects host to the listener at name through the fault layer.
// Dials inside an offline window are refused; a successful dial
// returns a FaultConn whose probabilistic fault stream is seeded by
// (plan seed, host, connection index) — failed dials do not consume a
// stream index, so retry counts never skew the schedule.
func (n *FaultNetwork) Dial(host int, name string) (net.Conn, error) {
	return n.DialContext(context.Background(), host, name)
}

// DialContext is Dial bounded by ctx (see MemNetwork.DialContext).
func (n *FaultNetwork) DialContext(ctx context.Context, host int, name string) (net.Conn, error) {
	if tick := n.tick(); n.plan.OfflineAt(host, tick) {
		return nil, fmt.Errorf("netsim: dial %q from host %d at tick %d: %w", name, host, tick, ErrHostOffline)
	}
	conn, err := n.mem.DialContext(ctx, name)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	idx := n.conns[host]
	n.conns[host]++
	n.mu.Unlock()
	return &FaultConn{
		Conn: conn,
		net:  n,
		host: host,
		rng:  xrand.New(mix64(mix64(n.plan.Seed, uint64(host)+0x9e37), idx+0x79b9)),
	}, nil
}

// Dialer returns a dial closure for one host, the shape agent retry
// loops consume.
func (n *FaultNetwork) Dialer(host int, name string) func() (net.Conn, error) {
	return func() (net.Conn, error) { return n.Dial(host, name) }
}

// mix64 is a splitmix-style finalizer combining h and v into a well
// mixed 64-bit value (xrand's seeding mixer is unexported; any strong
// mixer serves, it only has to be deterministic).
func mix64(h, v uint64) uint64 {
	h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// FaultConn is one faulted connection: the client end of a MemNetwork
// pipe with the plan's faults applied to this host's edge.
type FaultConn struct {
	net.Conn
	net  *FaultNetwork
	host int

	mu      sync.Mutex // guards rng and severed
	rng     *xrand.Source
	severed bool
}

// sever kills the connection: both ends fail from here on (the peer
// sees EOF / closed pipe).
func (c *FaultConn) sever() {
	c.mu.Lock()
	c.severed = true
	c.mu.Unlock()
	_ = c.Conn.Close()
}

func (c *FaultConn) isSevered() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.severed
}

// Write applies the plan to one write. Decisions draw from the
// connection's seeded stream in a fixed order (fault uniform, jitter
// uniform, reset cut), so the fault schedule is identical across runs.
func (c *FaultConn) Write(p []byte) (int, error) {
	if c.isSevered() {
		return 0, ErrSevered
	}
	tick := c.net.tick()
	if c.net.plan.OfflineAt(c.host, tick) {
		c.sever()
		return 0, fmt.Errorf("netsim: write from host %d at tick %d: %w", c.host, tick, ErrHostOffline)
	}
	plan := &c.net.plan
	if !plan.injecting(tick) {
		return c.Conn.Write(p)
	}
	var (
		u     = -1.0
		delay = plan.Delay
		cut   int
	)
	c.mu.Lock()
	if plan.DropProb > 0 || plan.ResetProb > 0 {
		u = c.rng.Float64()
	}
	if plan.Jitter > 0 {
		delay += time.Duration(c.rng.Float64() * float64(plan.Jitter))
	}
	if u >= 0 && u >= plan.DropProb && u < plan.DropProb+plan.ResetProb && len(p) > 0 {
		cut = c.rng.Intn(len(p))
	}
	c.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	switch {
	case u >= 0 && u < plan.DropProb:
		// Swallow the whole write and sever: the writer's transport
		// accepted the bytes, the peer never sees them.
		c.sever()
		return len(p), nil
	case u >= 0 && u < plan.DropProb+plan.ResetProb:
		n, _ := c.Conn.Write(p[:cut])
		c.sever()
		return n, fmt.Errorf("netsim: write from host %d: %w", c.host, ErrFaultReset)
	}
	return c.Conn.Write(p)
}

// Read forwards to the pipe, severing (and discarding the read) when
// the host is inside an offline window — a partitioned host receives
// nothing, even bytes the peer pushed before the partition was
// observed on this edge.
func (c *FaultConn) Read(p []byte) (int, error) {
	if c.isSevered() {
		return 0, ErrSevered
	}
	n, err := c.Conn.Read(p)
	if tick := c.net.tick(); c.net.plan.OfflineAt(c.host, tick) {
		c.sever()
		return 0, fmt.Errorf("netsim: read on host %d at tick %d: %w", c.host, tick, ErrHostOffline)
	}
	return n, err
}

// Close severs without consulting the plan (an orderly local close).
func (c *FaultConn) Close() error {
	c.mu.Lock()
	c.severed = true
	c.mu.Unlock()
	return c.Conn.Close()
}
