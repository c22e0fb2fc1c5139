// Command hidsd runs one end-host behavioral HIDS agent: it replays a
// packet trace (an .etr file from tracegen, or a synthetic user
// generated on the fly), extracts the six Table-1 features, uploads
// its training distribution to the console, receives thresholds and
// streams alert batches back.
//
// The run loop itself — upload, wait for thresholds, monitor, flush —
// is fleet.RunAgent, the same code the in-process fleet simulator
// drives at thousand-agent scale; hidsd only adds flag parsing, trace
// loading and the TCP dial.
//
// Usage (trace file):
//
//	hidsd -console 127.0.0.1:7070 -trace /tmp/traces/host-003.etr -train-bins 672 -bins 1344
//
// Usage (synthetic, no file):
//
//	hidsd -console 127.0.0.1:7070 -user 3 -users 10 -seed 1 -weeks 2
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"net"
	"os"
	"time"

	"repro/internal/console"
	"repro/internal/features"
	"repro/internal/fleet"
	"repro/internal/flows"
	"repro/internal/netsim"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

func main() {
	consoleAddr := flag.String("console", "127.0.0.1:7070", "console address")
	tracePath := flag.String("trace", "", "path to an .etr trace (optional)")
	userID := flag.Int("user", 0, "synthetic user id (when no trace file)")
	users := flag.Int("users", 10, "population size the user belongs to")
	weeks := flag.Int("weeks", 2, "weeks in the synthetic capture")
	seed := flag.Uint64("seed", 1, "population seed")
	trainBins := flag.Int("train-bins", 672, "bins used for training upload")
	binMinutes := flag.Int("bin", 15, "aggregation window in minutes")
	batchEvery := flag.Int("batch", 96, "flush alert batches every N windows")
	snapDir := flag.String("snapshot", "", "workspace snapshot directory (warm agents map their matrix instead of generating)")
	dialTimeout := flag.Duration("dial-timeout", console.DefaultDialTimeout, "bound on each TCP connection attempt")
	backoff := flag.Duration("backoff", 0, "base redial backoff (0 = library default)")
	backoffMax := flag.Duration("backoff-max", 0, "redial backoff cap (0 = library default)")
	retries := flag.Int("retries", 0, "redial attempts per link loss (0 = library default, negative = unlimited)")
	flag.Parse()

	pop, err := trace.NewPopulation(trace.Config{
		Users:    *users,
		Weeks:    *weeks,
		Seed:     *seed,
		BinWidth: time.Duration(*binMinutes) * time.Minute,
	})
	if err != nil {
		log.Fatalf("hidsd: %v", err)
	}
	if *userID < 0 || *userID >= len(pop.Users) {
		log.Fatalf("hidsd: user %d outside population of %d", *userID, *users)
	}
	u := pop.Users[*userID]
	m, err := buildMatrix(*tracePath, *snapDir, *userID, u, pop)
	if err != nil {
		log.Fatalf("hidsd: %v", err)
	}
	if *trainBins <= 0 || *trainBins >= m.Bins() {
		log.Fatalf("hidsd: -train-bins %d outside (0, %d)", *trainBins, m.Bins())
	}

	// Connect with a Dial closure so the agent self-heals: a console
	// restart or network blip mid-run costs a redial (with backoff and
	// seeded jitter), not the whole replay.
	agent, err := console.Connect(console.AgentConfig{
		HostID:   uint32(*userID),
		Hostname: fmt.Sprintf("host-%d", *userID),
		Dial: func() (net.Conn, error) {
			return net.DialTimeout("tcp", *consoleAddr, *dialTimeout)
		},
		Retry: console.RetryPolicy{
			MaxDials:   *retries,
			Backoff:    *backoff,
			BackoffMax: *backoffMax,
			Seed:       *seed,
		},
	})
	if err != nil {
		log.Fatalf("hidsd: %v", err)
	}
	defer agent.Close()
	rep, err := fleet.RunAgent(fleet.AgentRun{
		Agent:      agent,
		Matrix:     m,
		TrainLo:    0,
		TrainHi:    *trainBins,
		MonitorLo:  *trainBins,
		MonitorHi:  m.Bins(),
		FlushEvery: *batchEvery,
		Logf:       log.Printf,
	})
	if err != nil {
		log.Fatalf("hidsd: %v", err)
	}
	log.Printf("hidsd: monitored %d windows, sent %d alerts (policy %s, group %d)",
		rep.Windows, rep.AlertsSent, rep.Thresholds.Policy, rep.Thresholds.Group)
}

// buildMatrix loads the host's feature matrix from an .etr trace via
// the packet pipeline, from a warm workspace snapshot, or synthesizes
// it via the generator fast path (all bit-identical; the tests prove
// it).
func buildMatrix(tracePath, snapDir string, userID int, u *trace.User, pop *trace.Population) (*features.Matrix, error) {
	if tracePath == "" {
		if snapDir != "" {
			if m := snapshotMatrix(snapDir, userID, pop); m != nil {
				log.Printf("hidsd: mapped %d windows for user %d from snapshot", m.Bins(), userID)
				return m, nil
			}
			log.Printf("hidsd: no usable snapshot in %s, synthesizing", snapDir)
		}
		m := u.Series()
		log.Printf("hidsd: synthesized %d windows for user %d", m.Bins(), userID)
		return m, nil
	}
	f, err := os.Open(tracePath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rd, err := netsim.NewTraceReader(f)
	if err != nil {
		return nil, err
	}
	if int(rd.HostID()) != userID {
		log.Printf("hidsd: warning: trace host id %d != -user %d", rd.HostID(), userID)
	}
	m, err := flows.ExtractTrace(rd, u.Addr, pop.Cfg.BinWidth, pop.Cfg.StartMicros, pop.Cfg.TotalBins())
	if err != nil {
		return nil, fmt.Errorf("extracting %s: %w", tracePath, err)
	}
	log.Printf("hidsd: extracted %d windows from %s", m.Bins(), tracePath)
	return m, nil
}

// snapshotMatrix fetches one user's matrix from a warm workspace
// snapshot with snapshot.ReadUser: the agent verifies and reads only
// its own record, never the whole population's store, and never
// builds one (one agent must not materialize a whole population).
// Returns nil when the snapshot is absent, stale, corrupt or holds no
// such user; the log lines distinguish a cold store (expected, the
// operator just has not run snapshots yet) from an unusable one
// (worth investigating).
func snapshotMatrix(dir string, userID int, pop *trace.Population) *features.Matrix {
	key, err := snapshot.KeyFor(pop.Cfg)
	if err != nil {
		log.Printf("hidsd: snapshot key: %v", err)
		return nil
	}
	m, err := snapshot.ReadUser(dir, key, userID)
	if errors.Is(err, fs.ErrNotExist) {
		log.Printf("hidsd: snapshot store %s is cold for this config", dir)
		return nil
	}
	if err != nil {
		log.Printf("hidsd: warning: snapshot read failed (stale, damaged or out-of-range): %v", err)
		return nil
	}
	return m
}
