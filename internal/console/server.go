package console

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/par"
	"repro/internal/stats"
)

// ServerConfig parameterizes the central console.
type ServerConfig struct {
	// Policy is the enterprise configuration policy applied to every
	// feature.
	Policy core.Policy
	// ExpectedHosts is the number of hosts that must upload all six
	// training distributions before thresholds are computed and
	// pushed. Must be positive.
	ExpectedHosts int
	// AttackMagnitudes feed objective-optimizing heuristics; may be
	// nil for percentile-style heuristics.
	AttackMagnitudes []float64
	// Logf, if set, receives operational log lines (default: silent).
	Logf func(format string, args ...any)
	// WriteTimeout, when positive, is applied as a write deadline to
	// every outbound frame so one wedged agent cannot block the
	// console's push loop (default: none).
	WriteTimeout time.Duration
	// IdleTimeout, when positive, bounds how long a connection may sit
	// silent between inbound frames (including before hello) before it
	// is dropped. Default: none — agents with nothing to report between
	// flush rounds stay connected indefinitely unless they Ping.
	IdleTimeout time.Duration
}

// Server is the central IT operation console: it collects training
// distributions, computes the policy's thresholds, pushes them to
// agents and tallies incoming alerts.
type Server struct {
	cfg ServerConfig

	mu          sync.Mutex
	configuring bool
	epoch       int
	conns       map[uint32]*serverConn
	dists       map[uint32]*hostDists
	complete    map[uint32]bool // hosts with all six features this epoch (only true entries)
	pushed      bool
	alertTally  map[uint32]int
	alertLog    []AlertBatch
	alertSeq    map[uint32]uint64
	liveness    map[uint32]*HostLiveness
	assignment  map[features.Feature]*core.Assignment
	hostOrder   []uint32

	wg       sync.WaitGroup
	closing  bool
	listener net.Listener
}

// hostDists is one host's training distributions for the open epoch,
// indexed by feature; nil until uploaded.
type hostDists [features.NumFeatures]*stats.Empirical

type serverConn struct {
	hostID       uint32
	conn         net.Conn
	wmu          sync.Mutex
	writeTimeout time.Duration
}

func (c *serverConn) send(t MsgType, payload any) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.writeTimeout > 0 {
		_ = c.conn.SetWriteDeadline(time.Now().Add(c.writeTimeout))
		defer func() { _ = c.conn.SetWriteDeadline(time.Time{}) }()
	}
	return WriteMsg(c.conn, t, payload)
}

// HostLiveness is the console's per-agent connectivity record.
type HostLiveness struct {
	// Connected reports whether the host currently holds a registered
	// connection.
	Connected bool
	// Connects and Disconnects count registration events; a self-healing
	// agent that rode out a partition shows Connects > 1.
	Connects    int
	Disconnects int
	// LastSeen is the wall-clock time of the last inbound frame (or
	// disconnect) from the host.
	LastSeen time.Time
}

// NewServer creates a console server.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.ExpectedHosts <= 0 {
		return nil, fmt.Errorf("console: ExpectedHosts must be positive, got %d", cfg.ExpectedHosts)
	}
	if cfg.Policy.Heuristic == nil || cfg.Policy.Grouping == nil {
		return nil, fmt.Errorf("console: ServerConfig.Policy incomplete")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Server{
		cfg:        cfg,
		conns:      make(map[uint32]*serverConn),
		dists:      make(map[uint32]*hostDists),
		complete:   make(map[uint32]bool),
		alertTally: make(map[uint32]int),
		alertSeq:   make(map[uint32]uint64),
		liveness:   make(map[uint32]*HostLiveness),
	}, nil
}

// Serve accepts agent connections on ln until Close is called. It
// returns after the listener fails or closes.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.listener = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closing := s.closing
			s.mu.Unlock()
			if closing {
				return nil
			}
			return fmt.Errorf("console: accept: %w", err)
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			if err := s.handle(conn); err != nil && !errors.Is(err, net.ErrClosed) {
				s.cfg.Logf("console: connection from %v: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}

// readDeadline arms conn's read deadline from IdleTimeout (a no-op
// when none is configured) so a silent peer eventually times out.
func (s *Server) readDeadline(conn net.Conn) {
	if s.cfg.IdleTimeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
	}
}

// handle runs one agent connection to completion.
func (s *Server) handle(conn net.Conn) error {
	defer conn.Close()

	s.readDeadline(conn)
	t, body, err := ReadMsg(conn)
	if err != nil {
		return err
	}
	if t != MsgHello {
		_ = WriteMsg(conn, MsgError, ProtoError{Message: "expected hello"})
		return fmt.Errorf("first message was %s", t)
	}
	var hello Hello
	if err := decode(t, body, &hello); err != nil {
		return err
	}
	if hello.Proto != ProtoVersion {
		msg := fmt.Sprintf("protocol version %d, console speaks %d", hello.Proto, ProtoVersion)
		_ = WriteMsg(conn, MsgError, ProtoError{Message: msg})
		return fmt.Errorf("host %d: %s", hello.HostID, msg)
	}
	sc := &serverConn{hostID: hello.HostID, conn: conn, writeTimeout: s.cfg.WriteTimeout}
	if err := s.register(sc, hello.Resume); err != nil {
		_ = WriteMsg(conn, MsgError, ProtoError{Message: "duplicate host id"})
		return err
	}
	// Registered: from here on, this handler owns the conns entry and
	// must remove it on any exit, or the host could never reconnect.
	defer func() {
		s.mu.Lock()
		if s.conns[hello.HostID] == sc {
			delete(s.conns, hello.HostID)
			lv := s.livenessLocked(hello.HostID)
			lv.Connected = false
			lv.Disconnects++
			lv.LastSeen = time.Now()
		}
		s.mu.Unlock()
	}()
	s.mu.Lock()
	alreadyPushed := s.pushed
	s.mu.Unlock()
	if err := sc.send(MsgAck, Ack{}); err != nil {
		return err
	}
	s.cfg.Logf("console: host %d connected from %v", hello.HostID, conn.RemoteAddr())
	if alreadyPushed {
		// Late (re)connector: push the existing thresholds.
		if err := s.pushTo(sc); err != nil {
			return err
		}
	}

	for {
		s.readDeadline(conn)
		t, body, err := ReadMsg(conn)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		s.touch(hello.HostID)
		switch t {
		case MsgDistUpload:
			var up DistUpload
			if err := decode(t, body, &up); err != nil {
				return err
			}
			if err := s.acceptUpload(sc, up); err != nil {
				_ = sc.send(MsgError, ProtoError{Message: err.Error()})
				return err
			}
			if err := sc.send(MsgAck, Ack{}); err != nil {
				return err
			}
			s.maybeConfigure()
		case MsgAlertBatch:
			var ab AlertBatch
			if err := decode(t, body, &ab); err != nil {
				return err
			}
			// As for uploads, a connection speaks for its own host only.
			if ab.HostID != sc.hostID {
				err := fmt.Errorf("alert batch host %d on connection of host %d", ab.HostID, sc.hostID)
				_ = sc.send(MsgError, ProtoError{Message: err.Error()})
				return err
			}
			s.mu.Lock()
			// A sequenced batch the console already tallied is a re-send
			// whose ack was lost in transit: acknowledge again, count
			// nothing. Seq 0 (unsequenced legacy senders) always counts.
			dup := ab.Seq != 0 && ab.Seq <= s.alertSeq[ab.HostID]
			if !dup {
				if ab.Seq != 0 {
					s.alertSeq[ab.HostID] = ab.Seq
				}
				s.alertTally[ab.HostID] += len(ab.Alerts)
				s.alertLog = append(s.alertLog, ab)
			}
			s.mu.Unlock()
			if dup {
				s.cfg.Logf("console: host %d re-sent alert batch seq %d; dropped", ab.HostID, ab.Seq)
			}
			if err := sc.send(MsgAck, Ack{Seq: ab.Seq}); err != nil {
				return err
			}
		case MsgPing:
			// One-way keepalive: liveness was touched above; no reply, so
			// the per-connection ack FIFO the agent's rpc path relies on
			// is not perturbed.
		default:
			_ = sc.send(MsgError, ProtoError{Message: "unexpected " + t.String()})
			return fmt.Errorf("unexpected message %s from host %d", t, hello.HostID)
		}
	}
}

// register claims the conns slot for sc's host. A reconnecting agent
// can arrive before the handler of its previous (closed) connection
// has observed EOF and cleaned up, so an occupied slot is retried
// briefly; only a slot still held after the grace period is a genuine
// concurrent duplicate and rejected. resume preserves the host's
// alert-sequence watermark (a self-healing redial continues the old
// sequence stream); a fresh hello resets it.
func (s *Server) register(sc *serverConn, resume bool) error {
	deadline := time.Now().Add(500 * time.Millisecond)
	for {
		s.mu.Lock()
		if _, dup := s.conns[sc.hostID]; !dup {
			s.conns[sc.hostID] = sc
			if _, ok := s.dists[sc.hostID]; !ok {
				s.dists[sc.hostID] = &hostDists{}
				s.hostOrder = append(s.hostOrder, sc.hostID)
			}
			if !resume {
				delete(s.alertSeq, sc.hostID)
			}
			lv := s.livenessLocked(sc.hostID)
			lv.Connected = true
			lv.Connects++
			lv.LastSeen = time.Now()
			s.mu.Unlock()
			return nil
		}
		s.mu.Unlock()
		if time.Now().After(deadline) {
			return fmt.Errorf("duplicate host %d", sc.hostID)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// livenessLocked returns (creating if needed) the liveness record for
// one host. Callers hold s.mu.
func (s *Server) livenessLocked(hostID uint32) *HostLiveness {
	lv := s.liveness[hostID]
	if lv == nil {
		lv = &HostLiveness{}
		s.liveness[hostID] = lv
	}
	return lv
}

// touch refreshes one host's liveness timestamp on any inbound frame.
func (s *Server) touch(hostID uint32) {
	s.mu.Lock()
	s.livenessLocked(hostID).LastSeen = time.Now()
	s.mu.Unlock()
}

func (s *Server) acceptUpload(sc *serverConn, up DistUpload) error {
	if up.HostID != sc.hostID {
		return fmt.Errorf("upload host %d on connection of host %d", up.HostID, sc.hostID)
	}
	f := features.Feature(up.Feature)
	if !f.Valid() {
		return fmt.Errorf("invalid feature %d", up.Feature)
	}
	if len(up.Samples) == 0 {
		return fmt.Errorf("empty distribution for %s", f)
	}
	// The upload is the host's sorted distribution: adopting it costs
	// one validation pass, and a bad one is refused here, on the
	// sender's connection, instead of aborting the fleet's configure.
	dist, err := stats.NewEmpiricalFromSorted(up.Samples)
	if err != nil {
		return fmt.Errorf("%s distribution: %w", f, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Epoch guard. An upload targets the epoch the sender expects its
	// next thresholds to carry, which makes reconnect retries safe:
	// only the first upload of a genuinely new learning round (epoch
	// e+1 after epoch e's push) rolls the console forward; a re-sent
	// upload for an epoch that has already been configured is
	// acknowledged and dropped instead of wiping the fleet's state.
	switch {
	case up.Epoch > s.epoch+1 || (up.Epoch == s.epoch+1 && !s.pushed):
		return fmt.Errorf("upload for epoch %d ahead of console epoch %d", up.Epoch, s.epoch)
	case up.Epoch < s.epoch || (up.Epoch == s.epoch && s.pushed):
		s.cfg.Logf("console: host %d re-sent epoch %d upload (console at %d); dropped",
			sc.hostID, up.Epoch, s.epoch)
		return nil
	case up.Epoch == s.epoch+1:
		// First upload of the next learning round: the paper re-learns
		// thresholds every week from the fresh training window (§6.1).
		s.pushed = false
		s.epoch++
		for id := range s.dists {
			s.dists[id] = &hostDists{}
		}
		clear(s.complete)
		s.cfg.Logf("console: epoch %d opened by host %d", s.epoch, sc.hostID)
	}
	s.dists[sc.hostID][f] = dist
	all := true
	for _, d := range s.dists[sc.hostID] {
		if d == nil {
			all = false
			break
		}
	}
	// Uploads only fill slots within an epoch, so a host's entry is
	// only ever set true, and len(complete) counts the complete hosts
	// for maybeConfigure without a walk.
	if all {
		s.complete[sc.hostID] = true
	}
	return nil
}

// maybeConfigure computes and pushes thresholds once every expected
// host has uploaded all features.
func (s *Server) maybeConfigure() {
	s.mu.Lock()
	if s.pushed || s.configuring || len(s.complete) < s.cfg.ExpectedHosts {
		s.mu.Unlock()
		return
	}
	s.configuring = true
	hostOrder := append([]uint32(nil), s.hostOrder...)
	var train [features.NumFeatures][]*stats.Empirical
	for _, f := range features.All() {
		train[f] = make([]*stats.Empirical, len(hostOrder))
		for i, id := range hostOrder {
			// A host that connected but never uploaded leaves a hole.
			if train[f][i] = s.dists[id][f]; train[f][i] == nil {
				s.configuring = false
				s.mu.Unlock()
				s.cfg.Logf("console: host %d feature %s: %v", id, f, stats.ErrNoSamples)
				return
			}
		}
	}
	s.mu.Unlock()

	// The six features configure independently.
	var (
		asns [features.NumFeatures]*core.Assignment
		errs [features.NumFeatures]error
	)
	par.ForEach(features.NumFeatures, 0, func(f int) {
		asns[f], errs[f] = core.Configure(train[f], s.cfg.Policy, s.cfg.AttackMagnitudes)
	})
	assignment := make(map[features.Feature]*core.Assignment, features.NumFeatures)
	for _, f := range features.All() {
		if errs[f] != nil {
			s.cfg.Logf("console: configuring %s: %v", f, errs[f])
			s.abortConfigure()
			return
		}
		assignment[f] = asns[f]
	}

	s.mu.Lock()
	s.assignment = assignment
	s.pushed = true
	s.configuring = false
	conns := make([]*serverConn, 0, len(s.conns))
	for _, sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()
	s.cfg.Logf("console: policy %s configured for %d hosts; pushing thresholds",
		s.cfg.Policy.Name(), len(hostOrder))
	for _, sc := range conns {
		if err := s.pushTo(sc); err != nil {
			s.cfg.Logf("console: pushing to host %d: %v", sc.hostID, err)
		}
	}
}

// abortConfigure releases the single-flight configuration guard
// after a failed attempt so a later upload can retry.
func (s *Server) abortConfigure() {
	s.mu.Lock()
	s.configuring = false
	s.mu.Unlock()
}

// pushTo sends the computed thresholds to one agent.
func (s *Server) pushTo(sc *serverConn) error {
	s.mu.Lock()
	asn := s.assignment
	idx := -1
	for i, id := range s.hostOrder {
		if id == sc.hostID {
			idx = i
			break
		}
	}
	s.mu.Unlock()
	if asn == nil || idx < 0 || idx >= len(asn[features.TCP].Thresholds) {
		return fmt.Errorf("no assignment for host %d", sc.hostID)
	}
	var msg Thresholds
	msg.Policy = s.cfg.Policy.Name()
	s.mu.Lock()
	msg.Epoch = s.epoch
	s.mu.Unlock()
	for _, f := range features.All() {
		msg.Values[f] = asn[f].Thresholds[idx]
	}
	msg.Group = asn[features.TCP].GroupOf(idx)
	return sc.send(MsgThresholds, msg)
}

// Assignment returns the computed assignment for one feature (nil
// before configuration happens).
func (s *Server) Assignment(f features.Feature) *core.Assignment {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.assignment == nil {
		return nil
	}
	return s.assignment[f]
}

// Epoch returns the current configuration epoch (0-based).
func (s *Server) Epoch() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// AlertCount returns the number of alerts received from one host.
func (s *Server) AlertCount(hostID uint32) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.alertTally[hostID]
}

// Alerts returns a copy of every alert batch received so far, in
// arrival order. The fleet simulator rebuilds the per-host alarm
// matrix from this log (the console-side view of the fleet), so
// collaborative quorum detection runs on exactly what came over the
// wire rather than on agent-side state.
func (s *Server) Alerts() []AlertBatch {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]AlertBatch(nil), s.alertLog...)
}

// Liveness returns a copy of the per-host connectivity records.
func (s *Server) Liveness() map[uint32]HostLiveness {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[uint32]HostLiveness, len(s.liveness))
	for id, lv := range s.liveness {
		out[id] = *lv
	}
	return out
}

// DeadHosts returns the hosts that once connected but have now been
// disconnected for longer than grace, sorted ascending. This is the
// console's degraded-mode signal: quorum should be computed over the
// population minus these hosts.
func (s *Server) DeadHosts(grace time.Duration) []uint32 {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	var dead []uint32
	for id, lv := range s.liveness {
		if !lv.Connected && now.Sub(lv.LastSeen) > grace {
			dead = append(dead, id)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i] < dead[j] })
	return dead
}

// TotalAlerts returns the number of alerts received from all hosts —
// the quantity Table 3 reports per week.
func (s *Server) TotalAlerts() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, c := range s.alertTally {
		n += c
	}
	return n
}

// Hosts returns the host IDs that have connected, in first-seen
// order.
func (s *Server) Hosts() []uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]uint32(nil), s.hostOrder...)
}

// Close shuts the listener and waits for connection handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closing = true
	ln := s.listener
	conns := make([]*serverConn, 0, len(s.conns))
	for _, sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, sc := range conns {
		_ = sc.conn.Close()
	}
	s.wg.Wait()
	return err
}
