package remotework

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/features"
	"repro/internal/snapshot"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Daemon is the worker side of the transport: it accepts connections,
// builds requested shard ranges into its scratch store, and serves
// the sealed parts back in CRC-checked chunks. One connection carries
// one session: a build request, heartbeats while the build runs, a
// ready declaration, then client-driven chunk fetches until the
// client hangs up.
//
// The scratch store doubles as the resume cache: a part sealed for a
// session that died mid-stream is found by the next session's
// VerifyPart probe and served immediately, so a reconnecting client
// re-fetches only the tail it is missing.
type Daemon struct {
	// Dir is the scratch store sealed parts live in.
	Dir string
	// BuildDelay, when positive, stretches every build by sleeping
	// per built user — the knob chaos smokes use to make
	// kill-mid-stream timing windows wide enough to hit reliably.
	BuildDelay time.Duration
	// Logf, when non-nil, receives one line per session event.
	Logf func(format string, args ...any)

	mu   sync.Mutex
	pops map[trace.Config]*trace.Population
}

func (d *Daemon) logf(format string, args ...any) {
	if d.Logf != nil {
		d.Logf(format, args...)
	}
}

// Serve accepts sessions on l until Accept fails (closing the
// listener is the shutdown path). Each session runs on its own
// goroutine; a session error ends that session only.
func (d *Daemon) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go func() {
			defer conn.Close()
			if err := d.session(conn); err != nil {
				d.logf("remotework: session from %v: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}

// population returns the cached population for a normalized config,
// constructing it once — population construction is the expensive
// part of a cold daemon, and every range of one build shares it.
func (d *Daemon) population(cfg trace.Config) (*trace.Population, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.pops == nil {
		d.pops = make(map[trace.Config]*trace.Population)
	}
	if pop := d.pops[cfg]; pop != nil {
		return pop, nil
	}
	pop, err := trace.NewPopulation(cfg)
	if err != nil {
		return nil, err
	}
	d.pops[cfg] = pop
	return pop, nil
}

// sendErr reports a session failure to the client; best effort — the
// conn may already be gone.
func sendErr(conn net.Conn, retryable bool, err error) error {
	_ = writeFrame(conn, 5*time.Second, mErr, errInfo{Retryable: retryable, Msg: err.Error()})
	return err
}

// session runs one build-and-stream exchange.
func (d *Daemon) session(conn net.Conn) error {
	typ, payload, err := readFrame(conn, 30*time.Second)
	if err != nil {
		return fmt.Errorf("reading build request: %w", err)
	}
	if typ != mBuild {
		return fmt.Errorf("expected build frame, got type %d", typ)
	}
	var req buildRequest
	if err := wire.Decode(payload, &req); err != nil {
		return sendErr(conn, false, fmt.Errorf("bad build request: %w", err))
	}
	cfg := trace.Config{
		Users: req.Users, Weeks: req.Weeks,
		BinWidth: time.Duration(req.BinWidthMicros) * time.Microsecond,
		Seed:     req.Seed, StartMicros: req.StartMicros,
		HeavyFraction: req.HeavyFraction, WeeklyTrend: req.WeeklyTrend,
	}
	key, err := snapshot.KeyFor(cfg)
	if err != nil {
		return sendErr(conn, false, err)
	}
	if req.Lo < 0 || req.Hi <= req.Lo || req.Hi > key.Users {
		return sendErr(conn, false, fmt.Errorf("range [%d, %d) invalid for %d users", req.Lo, req.Hi, key.Users))
	}

	// A sealed part from an earlier session (one whose client died
	// mid-stream) short-circuits the build: verify and serve it.
	if _, verr := snapshot.VerifyPart(d.Dir, key, req.Lo, req.Hi); verr != nil {
		if err := d.build(conn, cfg, key, req); err != nil {
			return err
		}
	} else {
		d.logf("remotework: part [%d, %d) already sealed; serving cached", req.Lo, req.Hi)
	}
	return d.stream(conn, key, req)
}

// build seals the requested part, heartbeating while it runs so the
// client can tell a working daemon from a hung one. The build is
// cancelled if the client goes away (its heartbeat write fails) —
// idempotent seals make restarting on the next session safe.
func (d *Daemon) build(conn net.Conn, cfg trace.Config, key snapshot.Key, req buildRequest) error {
	pop, err := d.population(cfg)
	if err != nil {
		return sendErr(conn, false, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- snapshot.BuildPart(ctx, d.Dir, key, req.Lo, req.Hi, 0, func(u int, rows [][features.NumFeatures]float64) {
			pop.Users[u].FillSeries(rows)
			if d.BuildDelay > 0 {
				time.Sleep(d.BuildDelay)
			}
		})
	}()
	hb := req.HeartbeatMS
	if hb <= 0 {
		hb = 500
	}
	ticker := time.NewTicker(time.Duration(hb) * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case err := <-done:
			if err != nil {
				return sendErr(conn, true, fmt.Errorf("build [%d, %d): %w", req.Lo, req.Hi, err))
			}
			return nil
		case <-ticker.C:
			if err := writeFrame(conn, 5*time.Second, mHeartbeat, heartbeat{}); err != nil {
				cancel() // client is gone; stop burning the range
				<-done
				return fmt.Errorf("heartbeat: %w", err)
			}
		}
	}
}

// stream declares the sealed part and serves client-driven fetches
// until the client hangs up.
func (d *Daemon) stream(conn net.Conn, key snapshot.Key, req buildRequest) error {
	srv, err := snapshot.OpenPartServer(d.Dir, key, req.Lo, req.Hi)
	if err != nil {
		return sendErr(conn, true, err)
	}
	defer srv.Close()
	if err := writeFrame(conn, 30*time.Second, mReady, readyInfo{Size: srv.Size(), CRC: srv.CRC()}); err != nil {
		return fmt.Errorf("ready: %w", err)
	}
	buf := make([]byte, 0)
	for {
		typ, payload, err := readFrame(conn, 5*time.Minute)
		if err != nil {
			return nil // client hangup ends the session; the part stays cached
		}
		if typ != mFetch {
			return sendErr(conn, true, fmt.Errorf("expected fetch frame, got type %d", typ))
		}
		var f fetch
		if err := f.UnmarshalBinary(payload); err != nil {
			return sendErr(conn, true, err)
		}
		n := min(int(f.N), maxFrame-spanHeader)
		data, crc, err := srv.ChunkAt(f.Off, n, buf)
		if err != nil {
			return sendErr(conn, true, err)
		}
		buf = data[:cap(data)]
		if err := writeFrame(conn, 30*time.Second, mChunk, chunk{Off: f.Off, CRC: crc, Data: data}); err != nil {
			return fmt.Errorf("chunk at %d: %w", f.Off, err)
		}
	}
}
