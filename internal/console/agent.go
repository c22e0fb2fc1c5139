package console

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/stats"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// RetryPolicy budgets the agent's self-healing behavior: how often it
// redials a lost console connection, how long it backs off between
// attempts, and how many times an acknowledged operation is retried
// across link failures. Zero values select the defaults noted on each
// field, so the zero RetryPolicy is a sane production posture.
type RetryPolicy struct {
	// MaxDials caps redial attempts per link loss; once exhausted the
	// agent is permanently dead (ErrAgentDead). 0 means 8; negative
	// means unlimited — the fleet simulator uses unlimited because its
	// fault plans, not a dial budget, decide which hosts stay down.
	MaxDials int
	// MaxOpRetries caps how many times one acknowledged operation
	// (upload, alert batch) is attempted across link failures. 0 means 4.
	MaxOpRetries int
	// Backoff is the base redial backoff; attempt n sleeps roughly
	// Backoff<<(n-1) with seeded jitter. 0 means 50ms.
	Backoff time.Duration
	// BackoffMax caps the exponential growth. 0 means 2s.
	BackoffMax time.Duration
	// LinkWait bounds how long one operation attempt waits for a live
	// connection before counting a failed try. 0 means 2×BackoffMax.
	LinkWait time.Duration
	// Seed drives the jitter stream; combined with the host ID so a
	// fleet of agents sharing one policy still jitters independently.
	Seed uint64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxDials == 0 {
		p.MaxDials = 8
	}
	if p.MaxOpRetries <= 0 {
		p.MaxOpRetries = 4
	}
	if p.Backoff <= 0 {
		p.Backoff = 50 * time.Millisecond
	}
	if p.BackoffMax <= 0 {
		p.BackoffMax = 2 * time.Second
	}
	if p.BackoffMax < p.Backoff {
		p.BackoffMax = p.Backoff
	}
	if p.LinkWait <= 0 {
		p.LinkWait = 2 * p.BackoffMax
	}
	return p
}

// AgentConfig parameterizes Connect.
type AgentConfig struct {
	// HostID is the end-host identifier (stable across reconnects).
	HostID uint32
	// Hostname is informational.
	Hostname string
	// Conn, when set, is the initial established connection (tests use
	// net.Pipe). When nil, Dial is invoked for the first connection.
	Conn net.Conn
	// Dial, when set, re-establishes lost connections; without it the
	// agent is single-shot and a dead link permanently kills it.
	Dial func() (net.Conn, error)
	// Retry budgets redial and operation retries.
	Retry RetryPolicy
	// AckTimeout bounds each wait for a server acknowledgment
	// (default 10s).
	AckTimeout time.Duration
	// WriteTimeout, when positive, is applied as a write deadline to
	// every outbound frame so a wedged peer cannot block the agent
	// forever (default: none).
	WriteTimeout time.Duration
}

// Agent is the end-host side of the management plane: the behavioral
// HIDS process running on one laptop. It uploads the host's training
// distributions, receives the policy's thresholds, evaluates feature
// windows locally and batches alerts back to the console. When
// configured with a Dial function it self-heals: a lost connection is
// redialed with exponential backoff and seeded jitter, uploads are
// re-sent idempotently (the console's epoch guard drops stale
// retries) and alert batches carry sequence numbers so a re-flush
// after a lost ack is never double-counted.
type Agent struct {
	hostID       uint32
	hostname     string
	dial         func() (net.Conn, error)
	retry        RetryPolicy
	ackTimeout   time.Duration
	writeTimeout time.Duration

	mu         sync.Mutex
	notify     chan struct{} // closed+replaced on any state change
	link       *link
	thresholds *Thresholds
	pending    []Alert      // alerts not yet frozen into a batch
	spool      []AlertBatch // frozen batches awaiting acknowledgment
	nextSeq    uint64
	lastErr    error
	closed     bool
	dead       bool
	greeted    bool // a handshake by this incarnation has succeeded
	reconnects int
	rng        *xrand.Source

	thrCh       chan Thresholds
	managerDone chan struct{}
	closedCh    chan struct{}
}

// link is one console connection attempt's state: the conn, its ack
// stream and its failure latch. Retried operations never see acks
// from a previous connection because each link has a fresh ackCh.
type link struct {
	conn net.Conn
	wmu  sync.Mutex // serializes frame writes

	ackCh chan Ack
	done  chan struct{}
	once  sync.Once

	mu  sync.Mutex
	err error
}

// fail latches the link's failure cause, closes the conn and releases
// everyone waiting on done. First cause wins.
func (l *link) fail(err error) {
	l.once.Do(func() {
		l.mu.Lock()
		l.err = err
		l.mu.Unlock()
		_ = l.conn.Close()
		close(l.done)
	})
}

func (l *link) failure() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	return errors.New("console: connection closed")
}

// ErrAgentClosed is returned for operations on a closed agent.
var ErrAgentClosed = errors.New("console: agent closed")

// ErrAgentDead is returned once the agent's connection is permanently
// lost: the redial budget is exhausted, or the link died and no Dial
// function was configured.
var ErrAgentDead = errors.New("console: agent connection permanently lost")

// ErrThresholdsTimeout is returned by WaitThresholdsEpoch when the
// timeout expires before thresholds arrive. Callers that wait in
// slices (the fleet runner polls between slices for fleet-wide
// aborts) test for it to distinguish "not yet" from a dead agent.
var ErrThresholdsTimeout = errors.New("console: timeout waiting for thresholds")

// DefaultDialTimeout bounds an agent's TCP connection establishment.
const DefaultDialTimeout = 30 * time.Second

// NewAgent runs the agent protocol over an existing connection (the
// tests use net.Pipe). Without a Dial function the agent cannot
// self-heal: a dead link permanently kills it.
func NewAgent(conn net.Conn, hostID uint32, hostname string) (*Agent, error) {
	return Connect(AgentConfig{HostID: hostID, Hostname: hostname, Conn: conn})
}

// Connect establishes an agent per cfg and completes the hello
// handshake on the first connection.
func Connect(cfg AgentConfig) (*Agent, error) {
	if cfg.Conn == nil && cfg.Dial == nil {
		return nil, errors.New("console: AgentConfig needs Conn or Dial")
	}
	retry := cfg.Retry.withDefaults()
	a := &Agent{
		hostID:       cfg.HostID,
		hostname:     cfg.Hostname,
		dial:         cfg.Dial,
		retry:        retry,
		ackTimeout:   cfg.AckTimeout,
		writeTimeout: cfg.WriteTimeout,
		notify:       make(chan struct{}),
		rng:          xrand.New(retry.Seed ^ (uint64(cfg.HostID)*0x9e3779b97f4a7c15 + 0x6a09e667f3bcc909)),
		thrCh:        make(chan Thresholds, 1),
		managerDone:  make(chan struct{}),
		closedCh:     make(chan struct{}),
	}
	if a.ackTimeout <= 0 {
		a.ackTimeout = 10 * time.Second
	}
	var l *link
	conn := cfg.Conn
	if conn != nil {
		var err error
		if l, err = a.handshake(conn, false); err != nil && a.dial == nil {
			return nil, err
		}
	}
	if l == nil {
		// No pre-established conn, or its handshake failed and a Dial
		// function exists: the first connection is a redial-budget
		// problem like any other — a chaos transport may well drop the
		// very first hello.
		var err error
		if l, err = a.redial(); err != nil {
			return nil, err
		}
	}
	a.link = l
	go a.manage(l)
	return a, nil
}

// handshake runs hello/ack on a fresh connection and returns its
// link. resume marks a redial by this same incarnation, telling the
// console to keep the host's alert-sequence dedup watermark.
func (a *Agent) handshake(conn net.Conn, resume bool) (*link, error) {
	l := &link{conn: conn, ackCh: make(chan Ack, 16), done: make(chan struct{})}
	go a.readLoop(l)
	if err := a.writeTo(l, MsgHello, Hello{HostID: a.hostID, Hostname: a.hostname, Resume: resume, Proto: ProtoVersion}); err != nil {
		l.fail(err)
		return nil, err
	}
	if _, err := a.waitAckOn(l, a.ackTimeout); err != nil {
		err = fmt.Errorf("console: hello not acknowledged: %w", err)
		l.fail(err)
		return nil, err
	}
	a.mu.Lock()
	a.greeted = true
	a.mu.Unlock()
	return l, nil
}

// writeTo frames and writes one message on l, under l's write lock and
// the configured write deadline.
func (a *Agent) writeTo(l *link, t MsgType, payload any) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	if a.writeTimeout > 0 {
		_ = l.conn.SetWriteDeadline(time.Now().Add(a.writeTimeout))
		defer func() { _ = l.conn.SetWriteDeadline(time.Time{}) }()
	}
	return WriteMsg(l.conn, t, payload)
}

// readLoop dispatches inbound messages until l's connection dies.
func (a *Agent) readLoop(l *link) {
	for {
		t, body, err := ReadMsg(l.conn)
		if err != nil {
			l.fail(err)
			return
		}
		switch t {
		case MsgAck:
			var ack Ack
			if decode(t, body, &ack) == nil {
				select {
				case l.ackCh <- ack:
				default: // slow consumer; acks are advisory
				}
			}
		case MsgThresholds:
			var thr Thresholds
			if decode(t, body, &thr) == nil {
				a.mu.Lock()
				if a.thresholds == nil || thr.Epoch >= a.thresholds.Epoch {
					a.thresholds = &thr
				}
				a.wakeLocked()
				a.mu.Unlock()
				select {
				case a.thrCh <- thr:
				default:
				}
			}
		case MsgError:
			var pe ProtoError
			_ = decode(t, body, &pe)
			l.fail(fmt.Errorf("console: server error: %s", pe.Message))
			return
		default:
			l.fail(fmt.Errorf("console: unexpected server message %s", t))
			return
		}
	}
}

// wakeLocked signals every state waiter. Callers hold a.mu.
func (a *Agent) wakeLocked() {
	close(a.notify)
	a.notify = make(chan struct{})
}

// manage owns the agent's connection lifecycle: it waits for the
// current link to die, then either redials (when a Dial function is
// configured) or marks the agent permanently dead.
func (a *Agent) manage(l *link) {
	defer close(a.managerDone)
	for {
		<-l.done
		cause := l.failure()
		a.mu.Lock()
		if a.link == l {
			a.link = nil
			a.wakeLocked()
		}
		closed := a.closed
		a.mu.Unlock()
		if closed {
			return
		}
		if a.dial == nil {
			a.markDead(cause)
			return
		}
		nl, err := a.redial()
		if err != nil {
			a.markDead(err)
			return
		}
		a.mu.Lock()
		if a.closed {
			a.mu.Unlock()
			nl.fail(ErrAgentClosed)
			return
		}
		a.link = nl
		a.reconnects++
		a.wakeLocked()
		a.mu.Unlock()
		l = nl
	}
}

// redial re-establishes the console connection with exponential
// backoff and seeded jitter (wire.Backoff), within the policy's dial
// budget, so agents healing through one partition do not stampede the
// console in lockstep.
func (a *Agent) redial() (*link, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		a.mu.Lock()
		closed := a.closed
		a.mu.Unlock()
		if closed {
			return nil, ErrAgentClosed
		}
		if a.retry.MaxDials > 0 && attempt >= a.retry.MaxDials {
			if lastErr == nil {
				lastErr = errors.New("console: no attempt made")
			}
			return nil, fmt.Errorf("console: redial budget (%d) exhausted: %w", a.retry.MaxDials, lastErr)
		}
		if attempt > 0 {
			select {
			case <-time.After(a.backoff(attempt)):
			case <-a.closedCh:
				return nil, ErrAgentClosed
			}
		}
		conn, err := a.dial()
		if err != nil {
			lastErr = err
			continue
		}
		// Resume only once a handshake by this incarnation has
		// succeeded: a new process restarting under an old host ID must
		// send a fresh hello so the console resets its dedup watermark —
		// otherwise the restart's alerts silently drop as "re-sent".
		a.mu.Lock()
		resume := a.greeted
		a.mu.Unlock()
		l, err := a.handshake(conn, resume)
		if err != nil {
			lastErr = err
			continue
		}
		return l, nil
	}
}

// backoff computes the sleep before redial attempt n ≥ 1.
func (a *Agent) backoff(attempt int) time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	return wire.Backoff{Base: a.retry.Backoff, Max: a.retry.BackoffMax}.Delay(attempt, a.rng)
}

// markDead latches the agent's permanent failure.
func (a *Agent) markDead(cause error) {
	a.mu.Lock()
	if !a.dead {
		a.dead = true
		if a.lastErr == nil {
			a.lastErr = cause
		}
		a.wakeLocked()
	}
	a.mu.Unlock()
}

// waitLink blocks until a live link is available, the agent dies, or
// the timeout expires. A link that has already failed but that the
// manager has not reaped yet counts as absent — returning it would
// burn the caller's retry budget on writes into a known-dead
// connection faster than the manager can heal it.
func (a *Agent) waitLink(timeout time.Duration) (*link, error) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		a.mu.Lock()
		l, closed, dead, lastErr, notify := a.link, a.closed, a.dead, a.lastErr, a.notify
		a.mu.Unlock()
		if closed {
			return nil, ErrAgentClosed
		}
		if l != nil {
			select {
			case <-l.done:
				// Failed link awaiting reap; the manager will swap it out
				// and signal notify (captured under the same lock, so the
				// wakeup cannot be lost).
			default:
				return l, nil
			}
		} else if dead {
			if lastErr != nil {
				return nil, fmt.Errorf("%w: %v", ErrAgentDead, lastErr)
			}
			return nil, ErrAgentDead
		}
		select {
		case <-notify:
		case <-deadline.C:
			return nil, errors.New("console: no live connection")
		}
	}
}

func (a *Agent) waitAckOn(l *link, timeout time.Duration) (Ack, error) {
	select {
	case ack := <-l.ackCh:
		return ack, nil
	case <-l.done:
		return Ack{}, l.failure()
	case <-time.After(timeout):
		return Ack{}, errors.New("console: timeout waiting for ack")
	}
}

// rpc performs one acknowledged operation, retrying across link
// failures within the policy's budget. A link failure fails the
// current link (so the ack FIFO of a retried attempt is always fresh)
// and waits for the manager to heal it. A payload the codec refuses
// before writing (wire.ErrUnsendable) is the caller's fault: rpc
// returns that error at once and the link carries on.
func (a *Agent) rpc(t MsgType, payload any) error {
	tries := a.retry.MaxOpRetries
	var lastErr error
	for attempt := 0; attempt < tries; attempt++ {
		l, err := a.waitLink(a.retry.LinkWait)
		if err != nil {
			if errors.Is(err, ErrAgentClosed) || errors.Is(err, ErrAgentDead) {
				return err
			}
			lastErr = err
			continue
		}
		if err := a.writeTo(l, t, payload); err != nil {
			if errors.Is(err, wire.ErrUnsendable) {
				return err
			}
			l.fail(err)
			lastErr = err
			continue
		}
		if _, err := a.waitAckOn(l, a.ackTimeout); err != nil {
			l.fail(err)
			lastErr = err
			continue
		}
		return nil
	}
	return fmt.Errorf("console: %s not delivered after %d attempts: %w", t, tries, lastErr)
}

// targetUploadEpoch is the configuration epoch a fresh upload targets:
// the epoch after the last thresholds this host saw, or 0 before any.
func (a *Agent) targetUploadEpoch() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.thresholds == nil {
		return 0
	}
	return a.thresholds.Epoch + 1
}

// uploadDistribution ships one feature's sorted training samples. The
// sort puts NaNs and −Inf first and +Inf last, so the ends alone show
// whether every sample is finite.
func (a *Agent) uploadDistribution(f features.Feature, sorted []float64, epoch int) error {
	if len(sorted) == 0 {
		return fmt.Errorf("console: empty %s distribution", f)
	}
	if lo, hi := sorted[0], sorted[len(sorted)-1]; math.IsNaN(lo) || math.IsInf(lo, -1) || math.IsInf(hi, 1) {
		return fmt.Errorf("console: %s distribution has a non-finite sample", f)
	}
	return a.rpc(MsgDistUpload, DistUpload{
		HostID: a.hostID, Feature: int(f), Samples: sorted, Epoch: epoch,
	})
}

// UploadMatrix ships all six features' training windows [lo, hi). The
// target epoch is snapshotted once so a re-learning round stays in one
// epoch even if thresholds arrive mid-upload. Every feature is
// gathered into one buffer: rpc encodes the frame and waits for its
// ack before returning, so no upload still holds the slice when the
// next feature overwrites it.
func (a *Agent) UploadMatrix(m *features.Matrix, lo, hi int) error {
	epoch := a.targetUploadEpoch()
	col := make([]float64, hi-lo)
	for _, f := range features.All() {
		m.ColumnInto(col, f, lo, hi)
		stats.SortCounts(col)
		if err := a.uploadDistribution(f, col, epoch); err != nil {
			return fmt.Errorf("console: uploading %s: %w", f, err)
		}
	}
	return nil
}

// WaitThresholdsEpoch blocks until thresholds of at least the given
// configuration epoch arrive — used after re-uploading a fresh
// training week to wait for the re-learned configuration.
func (a *Agent) WaitThresholdsEpoch(epoch int, timeout time.Duration) (Thresholds, error) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		a.mu.Lock()
		if a.thresholds != nil && a.thresholds.Epoch >= epoch {
			thr := *a.thresholds
			a.mu.Unlock()
			return thr, nil
		}
		closed, dead, lastErr, notify := a.closed, a.dead, a.lastErr, a.notify
		a.mu.Unlock()
		if closed {
			return Thresholds{}, ErrAgentClosed
		}
		if dead {
			if lastErr != nil {
				return Thresholds{}, lastErr
			}
			return Thresholds{}, errors.New("console: connection closed")
		}
		select {
		case thr := <-a.thrCh:
			if thr.Epoch >= epoch {
				return thr, nil
			}
		case <-notify:
		case <-deadline.C:
			return Thresholds{}, ErrThresholdsTimeout
		}
	}
}

// ObserveVector evaluates one window's feature vector, in canonical
// order, against the current thresholds, queueing an alert for every
// exceedance; bin is the window index reported to the console. The
// fleet simulator overlays fractional attack volumes (a mimicry size
// is rarely integral) with exactly the float64 arithmetic the
// in-memory evaluation path (core.Evaluate) performs, so wire-level
// and in-memory alarm decisions are bit-identical. A window with a NaN
// or ±Inf value is refused with an error and queues nothing: the alert
// codec could not send it.
func (a *Agent) ObserveVector(bin int, vec [features.NumFeatures]float64) error {
	for _, f := range features.All() {
		if math.IsNaN(vec[f]) || math.IsInf(vec[f], 0) {
			return fmt.Errorf("console: window %d: non-finite %s value %g", bin, f, vec[f])
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.thresholds == nil {
		return errors.New("console: no thresholds received")
	}
	for _, f := range features.All() {
		det := core.Detector{Feature: f, Threshold: a.thresholds.Values[f]}
		if det.Alarm(vec[f]) {
			a.pending = append(a.pending, Alert{
				Feature:   int(f),
				Bin:       bin,
				Value:     vec[f],
				Threshold: det.Threshold,
			})
		}
	}
	return nil
}

// PendingAlerts returns the number of queued alerts not yet frozen
// into a spooled batch.
func (a *Agent) PendingAlerts() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.pending)
}

// SpooledBatches returns the number of frozen alert batches awaiting
// console acknowledgment — non-zero only while the link is down or a
// flush failed and will be retried.
func (a *Agent) SpooledBatches() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.spool)
}

// Flush freezes pending alerts into a sequenced batch and delivers
// every spooled batch in order, waiting for each ack. On failure the
// undelivered batches stay spooled — with their already-assigned
// sequence numbers — so a later Flush re-sends the identical frames
// and the console's sequence dedup keeps counts exact even when only
// the ack (not the batch) was lost. A flush with nothing queued is a
// no-op.
func (a *Agent) Flush() error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return ErrAgentClosed
	}
	if len(a.pending) > 0 {
		a.nextSeq++
		a.spool = append(a.spool, AlertBatch{HostID: a.hostID, Seq: a.nextSeq, Alerts: a.pending})
		a.pending = nil
	}
	spool := append([]AlertBatch(nil), a.spool...)
	a.mu.Unlock()
	for _, b := range spool {
		if err := a.rpc(MsgAlertBatch, b); err != nil {
			return err
		}
		a.mu.Lock()
		if len(a.spool) > 0 && a.spool[0].Seq == b.Seq {
			a.spool = a.spool[1:]
		}
		a.mu.Unlock()
	}
	return nil
}

// Close flushes pending alerts on a best-effort basis, closes the
// connection and stops the redial manager.
func (a *Agent) Close() error {
	_ = a.Flush()
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil
	}
	a.closed = true
	l := a.link
	a.wakeLocked()
	a.mu.Unlock()
	close(a.closedCh)
	if l != nil {
		l.fail(ErrAgentClosed)
	}
	<-a.managerDone
	return nil
}
