package remotework

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/buildctl"
	"repro/internal/snapshot"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// Host is one remote worker daemon: a display name and a dial
// function. Real deployments dial TCP; tests dial through netsim's
// fault fabric.
type Host struct {
	Name string
	Dial func(ctx context.Context) (net.Conn, error)
}

// Pool is a buildctl.Worker that dispatches build attempts to remote
// daemons and streams the sealed parts back. One Build call runs up
// to Reconnects+1 sessions — against different hosts if the first
// choice keeps failing — over a single PartReceiver, so every session
// after the first resumes from the received offset instead of
// re-streaming the part.
type Pool struct {
	Dir   string
	Key   snapshot.Key
	Cfg   trace.Config // normalized config daemons rebuild the key from
	Hosts []Host

	// ChunkBytes sizes fetches (default 256 KiB). Smaller chunks mean
	// more round trips and a finer-grained fault surface.
	ChunkBytes int
	// HeartbeatEvery is the liveness interval daemons are asked to
	// heartbeat at while building (default 500ms); a session that sees
	// no frame for HeartbeatEvery×HeartbeatMisses (default 3) declares
	// the host hung and fails fast — the coordinator's retry/hedge
	// machinery takes it from there.
	HeartbeatEvery  time.Duration
	HeartbeatMisses int
	// DialTimeout bounds a dial (default 5s); RPCTimeout bounds every
	// other single frame exchange (default 30s).
	DialTimeout time.Duration
	RPCTimeout  time.Duration
	// Retry is the jittered backoff between a Build call's sessions
	// (default the coordinator's 20ms base, 2s cap). Reconnects caps
	// the sessions per Build call (default 4 reconnects, so 5 sessions).
	Retry      wire.Backoff
	Reconnects int
	// QuarantineAfter consecutive session failures quarantine a host
	// for the Probation window (defaults 3 and 3s); a quarantined host
	// receives no work until the window passes, then is re-admitted.
	// When every host is quarantined the least-recently condemned one
	// is probed anyway — total starvation would deadlock a build that
	// could still finish.
	QuarantineAfter int
	Probation       time.Duration
	// Alpha is the EWMA smoothing for observed throughput and per-user
	// cost (default 0.5).
	Alpha float64
	// Seed drives session backoff jitter.
	Seed uint64
	// BaseWeights optionally seeds WeightsFn with a-priori per-user
	// costs (Population.CostWeights); observed costs blend over them.
	BaseWeights []float64
	// Logf, when non-nil, receives one line per notable event.
	Logf func(format string, args ...any)

	once sync.Once
	mu   sync.Mutex
	hs   []*hostState
	rng  *xrand.Source
	// obs is the per-user observed-cost EWMA (seconds per user),
	// folded from successful attempts and consumed by WeightsFn.
	obs            []float64
	obsSet         []bool
	committedBytes int64
}

type hostState struct {
	host Host

	attempts, successes, failures int
	heartbeatMisses               int
	quarantines                   int
	consecFails                   int
	quarantinedUntil              time.Time
	inflight                      int
	bytesStreamed                 int64
	ewmaBps                       float64 // observed end-to-end throughput
}

func (p *Pool) init() {
	p.once.Do(func() {
		if p.ChunkBytes <= 0 {
			p.ChunkBytes = 256 << 10
		}
		if p.HeartbeatEvery <= 0 {
			p.HeartbeatEvery = 500 * time.Millisecond
		}
		if p.HeartbeatMisses <= 0 {
			p.HeartbeatMisses = 3
		}
		if p.DialTimeout <= 0 {
			p.DialTimeout = 5 * time.Second
		}
		if p.RPCTimeout <= 0 {
			p.RPCTimeout = 30 * time.Second
		}
		if p.Retry.Base <= 0 {
			p.Retry.Base = 20 * time.Millisecond
		}
		if p.Retry.Max <= 0 {
			p.Retry.Max = 2 * time.Second
		}
		if p.Reconnects <= 0 {
			p.Reconnects = 4
		}
		if p.QuarantineAfter <= 0 {
			p.QuarantineAfter = 3
		}
		if p.Probation <= 0 {
			p.Probation = 3 * time.Second
		}
		if p.Alpha <= 0 || p.Alpha > 1 {
			p.Alpha = 0.5
		}
		if p.Logf == nil {
			p.Logf = func(string, ...any) {}
		}
		p.rng = xrand.New(p.Seed ^ 0x5ee7a11c0de0301)
		p.hs = make([]*hostState, len(p.Hosts))
		for i, h := range p.Hosts {
			p.hs[i] = &hostState{host: h}
		}
		p.obs = make([]float64, p.Key.Users)
		p.obsSet = make([]bool, p.Key.Users)
	})
}

// errNoHosts aborts a build that cannot possibly progress.
var errNoHosts = errors.New("remotework: pool has no hosts")

// pickHost chooses the next session's host: healthy hosts first
// (probation passed), least-loaded, fastest observed, rotated by the
// attempt number so a hedge or retry lands on a different host than
// the attempt it is racing. With every host quarantined, the one
// whose probation expires soonest is probed anyway.
func (p *Pool) pickHost(t buildctl.Task, sess int) *hostState {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := time.Now()
	var healthy []*hostState
	for _, h := range p.hs {
		if now.After(h.quarantinedUntil) {
			healthy = append(healthy, h)
		}
	}
	if len(healthy) == 0 {
		for _, h := range p.hs {
			if healthy == nil || h.quarantinedUntil.Before(healthy[0].quarantinedUntil) {
				healthy = []*hostState{h}
			}
		}
		if len(healthy) > 0 {
			p.Logf("remotework: all hosts quarantined; probing %s", healthy[0].host.Name)
		}
	}
	if len(healthy) == 0 {
		return nil
	}
	sort.SliceStable(healthy, func(i, j int) bool {
		if healthy[i].inflight != healthy[j].inflight {
			return healthy[i].inflight < healthy[j].inflight
		}
		return healthy[i].ewmaBps > healthy[j].ewmaBps
	})
	h := healthy[(t.Attempt+sess)%len(healthy)]
	h.inflight++
	h.attempts++
	return h
}

func (p *Pool) recordFailure(h *hostState, heartbeatMiss bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	h.inflight--
	h.failures++
	h.consecFails++
	if heartbeatMiss {
		h.heartbeatMisses++
	}
	if h.consecFails >= p.QuarantineAfter && time.Now().After(h.quarantinedUntil) {
		h.quarantines++
		h.quarantinedUntil = time.Now().Add(p.Probation)
		p.Logf("remotework: quarantining %s for %v after %d consecutive failures",
			h.host.Name, p.Probation, h.consecFails)
	}
}

func (p *Pool) recordSuccess(h *hostState, t buildctl.Task, elapsed time.Duration, size int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	h.inflight--
	h.successes++
	h.consecFails = 0
	sec := elapsed.Seconds()
	if sec <= 0 {
		sec = 1e-6
	}
	bps := float64(size) / sec
	if h.ewmaBps == 0 {
		h.ewmaBps = bps
	} else {
		h.ewmaBps = p.Alpha*bps + (1-p.Alpha)*h.ewmaBps
	}
	p.committedBytes += size
	// Attribute the attempt's wall-clock evenly to its users: the
	// observed cost EWMA WeightsFn feeds back into CutRanges.
	perUser := sec / float64(t.Hi-t.Lo)
	for u := t.Lo; u < t.Hi; u++ {
		if p.obsSet[u] {
			p.obs[u] = p.Alpha*perUser + (1-p.Alpha)*p.obs[u]
		} else {
			p.obs[u], p.obsSet[u] = perUser, true
		}
	}
}

// WeightsFn returns the per-user cost weights the coordinator's
// re-cuts should use: observed cost where an attempt has measured it,
// base weights rescaled into the observed regime elsewhere. Pass it
// as buildctl.Options.WeightsFn.
func (p *Pool) WeightsFn() []float64 {
	p.init()
	p.mu.Lock()
	defer p.mu.Unlock()
	var obsSum, baseObsSum float64
	n := 0
	for u, set := range p.obsSet {
		if set {
			obsSum += p.obs[u]
			if len(p.BaseWeights) == p.Key.Users {
				baseObsSum += p.BaseWeights[u]
			}
			n++
		}
	}
	if n == 0 {
		if len(p.BaseWeights) == p.Key.Users {
			return append([]float64(nil), p.BaseWeights...)
		}
		return nil
	}
	meanObs := obsSum / float64(n)
	// Scale base weights so their observed subset has the observed
	// mean cost; unobserved users then sit in the same unit system.
	scale := 0.0
	if baseObsSum > 0 {
		scale = obsSum / baseObsSum
	}
	w := make([]float64, p.Key.Users)
	for u := range w {
		switch {
		case p.obsSet[u]:
			w[u] = p.obs[u]
		case scale > 0 && len(p.BaseWeights) == p.Key.Users:
			w[u] = p.BaseWeights[u] * scale
		default:
			w[u] = meanObs
		}
	}
	return w
}

// Build implements buildctl.Worker: run sessions with backoff until
// one streams and seals the part, resuming mid-part across sessions
// and hosts. A daemon-declared permanent error aborts via
// buildctl.Fatal; anything else is retryable and the coordinator
// decides the range's fate.
func (p *Pool) Build(ctx context.Context, t buildctl.Task) error {
	p.init()
	if len(p.hs) == 0 {
		return buildctl.Fatal(errNoHosts)
	}
	rcv, err := snapshot.NewPartReceiver(p.Dir, p.Key, t.Lo, t.Hi)
	if err != nil {
		return buildctl.Fatal(err)
	}
	committed := false
	defer func() {
		if !committed {
			rcv.Abort()
		}
	}()
	rng := xrand.New(p.Seed ^ (uint64(t.Lo)<<32 | uint64(t.Hi)<<8 | uint64(t.Attempt)) ^ 0x7e57)
	var lastErr error
	for sess := 0; sess <= p.Reconnects; sess++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		h := p.pickHost(t, sess)
		if h == nil {
			return buildctl.Fatal(errNoHosts)
		}
		start := time.Now()
		err := p.session(ctx, h, t, rcv)
		if err == nil {
			if cerr := rcv.Commit(); cerr != nil {
				// A commit refusal means the transfer lied somewhere;
				// treat like a failed session and restart clean.
				p.recordFailure(h, false)
				lastErr = cerr
				continue
			}
			committed = true
			p.recordSuccess(h, t, time.Since(start), rcv.Offset())
			return nil
		}
		p.recordFailure(h, errors.Is(err, errHeartbeatLost))
		if buildctl.IsFatal(err) || ctx.Err() != nil {
			return err
		}
		lastErr = err
		p.Logf("remotework: session %d for %v on %s failed at offset %d: %v",
			sess, t, h.host.Name, rcv.Offset(), err)
		delay := p.Retry.Delay(sess+1, rng)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(delay):
		}
	}
	return fmt.Errorf("remotework: %v failed %d sessions: %w", t, p.Reconnects+1, lastErr)
}

// errHeartbeatLost marks a session that declared its host hung: no
// heartbeat (or any other frame) within the liveness window.
var errHeartbeatLost = errors.New("remotework: heartbeat lost (host hung)")

// session runs one connection's worth of progress: request the build,
// wait out heartbeats, then fetch chunks from the receiver's offset
// until the part is complete.
func (p *Pool) session(ctx context.Context, h *hostState, t buildctl.Task, rcv *snapshot.PartReceiver) error {
	dctx, cancel := context.WithTimeout(ctx, p.DialTimeout)
	conn, err := h.host.Dial(dctx)
	cancel()
	if err != nil {
		return fmt.Errorf("dial %s: %w", h.host.Name, err)
	}
	defer conn.Close()
	// A coordinator cancel (hedge win, attempt deadline) must not wait
	// out an I/O deadline: kill the conn as soon as ctx dies.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	if err := writeFrame(conn, p.RPCTimeout, mBuild, buildRequest{
		Users: p.Cfg.Users, Weeks: p.Cfg.Weeks,
		BinWidthMicros: p.Cfg.BinWidth.Microseconds(),
		Seed:           p.Cfg.Seed, StartMicros: p.Cfg.StartMicros,
		HeavyFraction: p.Cfg.HeavyFraction, WeeklyTrend: p.Cfg.WeeklyTrend,
		Lo: t.Lo, Hi: t.Hi,
		HeartbeatMS: p.HeartbeatEvery.Milliseconds(),
	}); err != nil {
		return fmt.Errorf("build request: %w", err)
	}

	// Liveness phase: the daemon is building. Any frame resets the
	// window; silence past HeartbeatEvery×HeartbeatMisses is a hung
	// host, reported distinctly so health scoring can see it.
	var ready readyInfo
	hbWindow := time.Duration(p.HeartbeatMisses) * p.HeartbeatEvery
	for {
		typ, payload, err := readFrame(conn, hbWindow)
		if err != nil {
			var ne net.Error
			if (errors.As(err, &ne) && ne.Timeout() || errors.Is(err, os.ErrDeadlineExceeded)) && ctx.Err() == nil {
				return fmt.Errorf("%w: no frame from %s in %v", errHeartbeatLost, h.host.Name, hbWindow)
			}
			return fmt.Errorf("awaiting build on %s: %w", h.host.Name, err)
		}
		if typ == mHeartbeat {
			continue
		}
		if typ == mErr {
			return decodeErr(payload)
		}
		if typ != mReady {
			return fmt.Errorf("unexpected frame type %d awaiting build", typ)
		}
		if err := wire.Decode(payload, &ready); err != nil {
			return fmt.Errorf("ready frame: %w", err)
		}
		break
	}
	if err := rcv.Expect(ready.Size, ready.CRC); err != nil {
		return err
	}

	// Fetch phase: client-driven, one chunk per round trip, always
	// from the receiver's contiguous offset — which is exactly what
	// makes a reconnect resume instead of restart.
	for rcv.Offset() < ready.Size {
		if err := ctx.Err(); err != nil {
			return err
		}
		off := rcv.Offset()
		if err := writeFrame(conn, p.RPCTimeout, mFetch, fetch{Off: off, N: uint32(p.ChunkBytes)}); err != nil {
			return fmt.Errorf("fetch at %d: %w", off, err)
		}
		typ, payload, err := readFrame(conn, p.RPCTimeout)
		if err != nil {
			return fmt.Errorf("chunk at %d: %w", off, err)
		}
		if typ == mErr {
			return decodeErr(payload)
		}
		if typ != mChunk {
			return fmt.Errorf("unexpected frame type %d awaiting chunk", typ)
		}
		c, err := decodeChunk(payload)
		if err != nil {
			return err
		}
		if err := rcv.WriteChunk(c.Off, c.Data, c.CRC); err != nil {
			return err
		}
		p.mu.Lock()
		h.bytesStreamed += int64(len(c.Data))
		p.mu.Unlock()
	}
	return nil
}

// decodeErr turns a daemon error frame into a session error,
// promoting permanent failures to buildctl.Fatal.
func decodeErr(payload []byte) error {
	var ei errInfo
	if err := wire.Decode(payload, &ei); err != nil {
		return fmt.Errorf("undecodable error frame: %w", err)
	}
	err := fmt.Errorf("remotework: daemon: %s", ei.Msg)
	if !ei.Retryable {
		return buildctl.Fatal(err)
	}
	return err
}

// HostSummary is one host's line in the pool summary.
type HostSummary struct {
	Host            string  `json:"host"`
	Attempts        int     `json:"attempts"`
	Successes       int     `json:"successes"`
	Failures        int     `json:"failures"`
	HeartbeatMisses int     `json:"heartbeat_misses"`
	Quarantines     int     `json:"quarantines"`
	BytesStreamed   int64   `json:"bytes_streamed"`
	ThroughputBps   float64 `json:"throughput_bps"`
	Weight          float64 `json:"weight"` // final EWMA share of fleet throughput
}

// Summary is the pool's one-line-JSON observability report: per-host
// health and throughput, plus fleet-wide streamed vs committed bytes
// (their difference is the re-streamed waste resets cost).
type Summary struct {
	Hosts           []HostSummary `json:"hosts"`
	BytesStreamed   int64         `json:"bytes_streamed"`
	BytesCommitted  int64         `json:"bytes_committed"`
	BytesRestreamed int64         `json:"bytes_restreamed"`
}

// Summary snapshots the pool's counters.
func (p *Pool) Summary() Summary {
	p.init()
	p.mu.Lock()
	defer p.mu.Unlock()
	var s Summary
	var totalBps float64
	for _, h := range p.hs {
		totalBps += h.ewmaBps
	}
	for _, h := range p.hs {
		weight := 0.0
		if totalBps > 0 {
			weight = h.ewmaBps / totalBps
		}
		s.Hosts = append(s.Hosts, HostSummary{
			Host: h.host.Name, Attempts: h.attempts, Successes: h.successes,
			Failures: h.failures, HeartbeatMisses: h.heartbeatMisses,
			Quarantines: h.quarantines, BytesStreamed: h.bytesStreamed,
			ThroughputBps: h.ewmaBps, Weight: weight,
		})
		s.BytesStreamed += h.bytesStreamed
	}
	s.BytesCommitted = p.committedBytes
	if s.BytesStreamed > s.BytesCommitted {
		s.BytesRestreamed = s.BytesStreamed - s.BytesCommitted
	}
	return s
}
