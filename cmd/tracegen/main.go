// Command tracegen materializes synthetic enterprise end-host packet
// traces to disk in the .etr format, one file per user — the role of
// the paper's windump-wrapper collection tool — and builds the
// population's content-addressed feature snapshot store.
//
// Usage:
//
//	tracegen -out /tmp/traces -users 10 -weeks 1 [-seed 1] [-bin 15] [-pcap]
//	tracegen -snapshot DIR -users 20000 -weeks 2 [build flags]
//	tracegen serve -snapshot SCRATCH -listen ADDR [-addr-file F] [-serve-delay D]
//	tracegen gc -snapshot DIR [-keep N] [-max-bytes B] [-part-age D] [-dry-run]
//
// Each file <out>/host-<id>.etr contains the user's full packet
// stream; internal/flows.ExtractTrace (or cmd/hidsd) turns it back
// into feature time series that agree bit-for-bit with the
// generator's fast path.
//
// With -snapshot, the population's feature workspace is additionally
// sealed into the snapshot store; -out may then be omitted to produce
// only the snapshot. A snapshot that already exists for these
// parameters is left untouched — the run reports the warm hit and
// skips generation. Every snapshot is built the same way, by the
// fault-tolerant coordinator (internal/buildctl): the population is
// cut into -ranges weight-balanced user ranges (default one per
// worker), -workers of them are built at once as independently
// checksummed part files (streamed in -shard-user batches, so a
// 100k-user enterprise fits laptop memory), every part is verified,
// and the verified parts are spliced into the canonical snapshot +
// manifest. The sealed bytes do not depend on the cut. Failed ranges
// back off and retry (-retries, -attempt-timeout), stragglers are
// hedged (-hedge-after), repeatedly failing ranges are re-cut, and an
// interrupted build resumes from the verified parts on disk. -fault
// injects a seeded chaos plan
// ("crash=0.3,slow=0.2,hang=0.1,corrupt=0.1,limit=2,slowms=50") for
// smoke-testing the coordinator against itself; -halt-after N stops
// after N newly sealed parts to exercise resumption.
//
// Multi-host builds move the workers to other machines. Each worker
// host runs the serve daemon; the coordinator dispatches ranges to
// them over the internal/remotework transport and streams the sealed
// parts back into its own store:
//
//	tracegen serve -snapshot SCRATCH -listen 0.0.0.0:9470           # worker hosts
//	tracegen -snapshot DIR -users 100000 \
//	    -hosts hosta:9470,hostb:9470                                # coordinator
//
// Streamed parts are CRC-checked chunk by chunk and resume from the
// received offset after a reconnect, so a daemon killed mid-stream
// costs only the missing tail. Hung hosts are detected by heartbeat
// and fail into the hedge path; repeat offenders are quarantined and
// re-admitted after probation; observed per-host throughput feeds the
// coordinator's range re-cuts. On exit, a -hosts build prints a
// one-line JSON transport summary (per-host attempts, heartbeat
// misses, bytes streamed and re-streamed, final weights); -chunk sets
// the stream chunk size. serve takes -addr-file (write the bound
// address, for :0 ports) and -serve-delay (slow builds down for
// chaos-smoke kill windows).
//
// The gc subcommand keeps the newest N sealed snapshots within the
// byte budget and removes evicted snapshots, orphaned manifests,
// already merged part leftovers, and parts or quarantined *.bad
// corpses from builds abandoned longer than -part-age ago.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/buildctl"
	"repro/internal/features"
	"repro/internal/netsim"
	"repro/internal/remotework"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "gc":
			runGC(os.Args[2:])
			return
		case "serve":
			runServe(os.Args[2:])
			return
		}
	}
	out := flag.String("out", "", "packet-trace output directory")
	users := flag.Int("users", 10, "number of end hosts")
	weeks := flag.Int("weeks", 1, "weeks of capture")
	seed := flag.Uint64("seed", 1, "population seed")
	binMinutes := flag.Int("bin", 15, "aggregation window in minutes")
	pcap := flag.Bool("pcap", false, "also write libpcap files (host-NNN.pcap) readable by tcpdump/wireshark")
	opts := buildctl.Options{Logf: log.Printf}
	flag.StringVar(&opts.Dir, "snapshot", "", "also build the feature workspace into this snapshot directory")
	shard := flag.Int("shard", 0, "users per fill batch inside a part build (0 = default)")
	flag.IntVar(&opts.Parallel, "workers", 1, "part builds run at once (0 = one per CPU)")
	flag.IntVar(&opts.Ranges, "ranges", 0, "target number of build ranges (0 = one per worker)")
	flag.IntVar(&opts.MaxAttempts, "retries", 0, "attempts per range before the build aborts (0 = default)")
	flag.DurationVar(&opts.AttemptTimeout, "attempt-timeout", 0, "wall-clock bound per attempt (0 = none)")
	flag.DurationVar(&opts.HedgeAfter, "hedge-after", 0, "minimum straggler age before a duplicate attempt is hedged (0 = median-based only)")
	flag.IntVar(&opts.HaltAfter, "halt-after", 0, "stop after N newly sealed parts (resumable; 0 = run to completion)")
	faultSpec := flag.String("fault", "", `seeded chaos plan, e.g. "crash=0.3,slow=0.2,hang=0.1,corrupt=0.1,limit=2,slowms=50"`)
	flag.Uint64Var(&opts.Seed, "fault-seed", 1, "seed for -fault draws, retry jitter and host selection")
	hosts := flag.String("hosts", "", "comma-separated serve daemon addresses to dispatch ranges to instead of building in-process")
	chunk := flag.Int("chunk", 0, "-hosts: part stream chunk size in bytes (0 = default)")
	flag.Parse()
	if *out == "" && opts.Dir == "" {
		flag.Usage()
		os.Exit(2)
	}

	// Ctrl-C / SIGTERM cancels in-flight builds cleanly: part writers
	// abort their temp files, nothing partial is ever sealed, and the
	// next run resumes from the verified parts.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	pop, err := trace.NewPopulation(trace.Config{
		Users:    *users,
		Weeks:    *weeks,
		Seed:     *seed,
		BinWidth: time.Duration(*binMinutes) * time.Minute,
	})
	if err != nil {
		log.Fatalf("tracegen: %v", err)
	}
	if opts.Dir != "" {
		buildSnapshot(ctx, pop, opts, *shard, *faultSpec, *hosts, *chunk)
	}
	if *out == "" {
		return
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatalf("tracegen: %v", err)
	}
	start := time.Now()
	var totalRecords int64
	for _, u := range pop.Users {
		path := filepath.Join(*out, fmt.Sprintf("host-%03d.etr", u.ID))
		f, err := os.Create(path)
		if err != nil {
			log.Fatalf("tracegen: %v", err)
		}
		n, err := u.WriteTrace(f, 0, u.Bins())
		if err != nil {
			log.Fatalf("tracegen: writing %s: %v", path, err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("tracegen: closing %s: %v", path, err)
		}
		totalRecords += n
		fmt.Printf("%s: %d packets (%s heavy=%v)\n", path, n, u.Addr, u.Heavy)
		if *pcap {
			ppath := filepath.Join(*out, fmt.Sprintf("host-%03d.pcap", u.ID))
			pf, err := os.Create(ppath)
			if err != nil {
				log.Fatalf("tracegen: %v", err)
			}
			pw, err := netsim.NewPcapWriter(pf, 0)
			if err != nil {
				log.Fatalf("tracegen: %v", err)
			}
			var perr error
			for b := 0; b < u.Bins() && perr == nil; b++ {
				u.EmitBin(b, func(rec netsim.Record) {
					if perr == nil {
						perr = pw.Write(rec)
					}
				})
			}
			if perr != nil {
				log.Fatalf("tracegen: pcap %s: %v", ppath, perr)
			}
			if err := pw.Flush(); err != nil {
				log.Fatalf("tracegen: %v", err)
			}
			if err := pf.Close(); err != nil {
				log.Fatalf("tracegen: %v", err)
			}
			fmt.Printf("%s: %d packets (pcap)\n", ppath, pw.Count())
		}
	}
	fmt.Printf("wrote %d packets for %d users in %v\n",
		totalRecords, *users, time.Since(start).Round(time.Millisecond))
}

// buildSnapshot drives the population's snapshot to sealed through
// the buildctl coordinator: in-process part builds by default, serve
// daemons with -hosts, either optionally under an injected chaos
// plan — which is how the chaos smokes prove the whole control plane
// converges to the clean build's exact bytes.
func buildSnapshot(ctx context.Context, pop *trace.Population, opts buildctl.Options, shard int, faultSpec, hosts string, chunk int) {
	key, err := snapshot.KeyFor(pop.Cfg)
	if err != nil {
		log.Fatalf("tracegen: snapshot key: %v", err)
	}
	opts.Key = key
	opts.Weights = pop.CostWeights()
	opts.Worker = &buildctl.LocalWorker{
		Dir: opts.Dir, Key: key, ShardUsers: shard,
		Generate: func(u int, rows [][features.NumFeatures]float64) {
			pop.Users[u].FillSeries(rows)
		},
	}
	var pool *remotework.Pool
	if hosts != "" {
		pool = remotePool(pop, opts, hosts, chunk)
		opts.Worker = pool
		// Observed per-host throughput steers the coordinator's
		// re-cuts toward the users that actually cost the most.
		opts.WeightsFn = pool.WeightsFn
	}
	if faultSpec != "" {
		plan, err := parseFaultPlan(faultSpec, opts.Seed)
		if err != nil {
			log.Fatalf("tracegen: -fault: %v", err)
		}
		opts.Worker = &buildctl.FaultyWorker{Inner: opts.Worker, Plan: plan, Dir: opts.Dir, Key: key}
	}
	summary := func() {
		if pool == nil {
			return
		}
		js, err := json.Marshal(pool.Summary())
		if err != nil {
			log.Printf("tracegen: encoding transport summary: %v", err)
			return
		}
		fmt.Println(string(js))
	}
	path := key.Path(opts.Dir)
	st, err := buildctl.Build(ctx, opts)
	switch {
	case errors.Is(err, buildctl.ErrHalted):
		summary()
		fmt.Printf("%s: halted after %d newly sealed parts (attempts=%d failures=%d); rerun to resume\n",
			path, st.SealedParts, st.Attempts, st.Failures)
		return
	case err != nil:
		summary()
		log.Fatalf("tracegen: building snapshot: %v", err)
	case st.Warm:
		fmt.Printf("%s: warm, generation skipped\n", path)
		return
	}
	summary()
	fmt.Printf("%s: sealed %d users from %d parts (attempts=%d failures=%d hedges=%d recuts=%d resumed=%d quarantined=%d rebuilt=%d users) in %v\n",
		path, key.Users, st.MergedParts, st.Attempts, st.Failures, st.Hedges,
		st.Recuts, st.ResumedParts, st.QuarantinedParts, st.RebuiltUsers,
		st.Elapsed.Round(time.Millisecond))
}

// runServe is the "tracegen serve" subcommand: serve remote build
// sessions until the process is signalled. The -snapshot directory is
// the scratch store; parts sealed there double as the resume cache for
// reconnecting coordinators.
func runServe(args []string) {
	fs := flag.NewFlagSet("tracegen serve", flag.ExitOnError)
	dir := fs.String("snapshot", "", "scratch store directory for parts built here (required)")
	addr := fs.String("listen", "", "address to serve remote builds on (required)")
	addrFile := fs.String("addr-file", "", "write the bound listen address to this file (useful with :0 ephemeral ports)")
	delay := fs.Duration("serve-delay", 0, "artificial delay per built user (widens chaos-smoke kill windows)")
	fs.Parse(args)
	if *dir == "" || *addr == "" {
		fs.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		log.Fatalf("tracegen: %v", err)
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("tracegen: serve: %v", err)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(l.Addr().String()+"\n"), 0o644); err != nil {
			log.Fatalf("tracegen: serve: %v", err)
		}
	}
	d := &remotework.Daemon{Dir: *dir, BuildDelay: *delay, Logf: log.Printf}
	go func() {
		<-ctx.Done()
		l.Close()
	}()
	log.Printf("tracegen: serving remote builds on %s (scratch %s)", l.Addr(), *dir)
	err = d.Serve(l)
	if ctx.Err() != nil {
		return
	}
	log.Fatalf("tracegen: serve: %v", err)
}

// remotePool wires the -hosts list into a remotework.Pool worker.
func remotePool(pop *trace.Population, opts buildctl.Options, hosts string, chunk int) *remotework.Pool {
	var hs []remotework.Host
	for _, a := range strings.Split(hosts, ",") {
		addr := strings.TrimSpace(a)
		if addr == "" {
			continue
		}
		hs = append(hs, remotework.Host{Name: addr, Dial: func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		}})
	}
	if len(hs) == 0 {
		log.Fatalf("tracegen: -hosts %q names no hosts", hosts)
	}
	return &remotework.Pool{
		Dir: opts.Dir, Key: opts.Key, Cfg: pop.Cfg, Hosts: hs,
		ChunkBytes: chunk, Seed: opts.Seed,
		BaseWeights: pop.CostWeights(), Logf: log.Printf,
	}
}

// parseFaultPlan decodes the -fault spec: comma-separated key=value
// pairs over crash/hang/slow/corrupt probabilities, an attempt limit,
// and the injected slowdown in milliseconds.
func parseFaultPlan(spec string, seed uint64) (buildctl.FaultPlan, error) {
	plan := buildctl.FaultPlan{Seed: seed, Limit: 2}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return plan, fmt.Errorf("fault spec term %q is not key=value", kv)
		}
		switch k {
		case "crash", "hang", "slow", "corrupt":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f < 0 || f > 1 {
				return plan, fmt.Errorf("fault probability %q=%q out of [0, 1]", k, v)
			}
			switch k {
			case "crash":
				plan.Crash = f
			case "hang":
				plan.Hang = f
			case "slow":
				plan.Slow = f
			case "corrupt":
				plan.Corrupt = f
			}
		case "limit":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return plan, fmt.Errorf("fault limit %q invalid", v)
			}
			plan.Limit = n
		case "slowms":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return plan, fmt.Errorf("fault slowms %q invalid", v)
			}
			plan.SlowDelay = time.Duration(n) * time.Millisecond
		default:
			return plan, fmt.Errorf("unknown fault key %q", k)
		}
	}
	return plan, nil
}

// runGC is the "tracegen gc" subcommand: retention for a snapshot
// store directory.
func runGC(args []string) {
	fs := flag.NewFlagSet("tracegen gc", flag.ExitOnError)
	dir := fs.String("snapshot", "", "snapshot store directory (required)")
	keep := fs.Int("keep", 0, "keep at most N newest sealed snapshots (0 = no count cap)")
	maxBytes := fs.Int64("max-bytes", 0, "total byte budget for kept snapshots (0 = no byte cap)")
	partAge := fs.Duration("part-age", 0, "age after which parts and *.bad corpses of abandoned builds are removed (0 = 24h default)")
	dryRun := fs.Bool("dry-run", false, "report what would be removed without removing it")
	fs.Parse(args)
	if *dir == "" {
		fs.Usage()
		os.Exit(2)
	}
	st, err := snapshot.GC(*dir, snapshot.GCOptions{
		KeepLatest: *keep, MaxBytes: *maxBytes, PartMaxAge: *partAge, DryRun: *dryRun,
	})
	if err != nil {
		log.Fatalf("tracegen: gc: %v", err)
	}
	verb := "removed"
	if *dryRun {
		verb = "would remove"
	}
	fmt.Printf("%s: kept %d snapshots, %s %d files (%d bytes)\n",
		*dir, st.Kept, verb, st.Removed, st.FreedBytes)
}
