package bench

import (
	"bufio"
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"
)

// setupRuns is how many times a run sets its workload up; setup_s is
// their median.
const setupRuns = 3

// Config is one run's settings.
type Config struct {
	Seed    uint64
	Ops     int     // timed ops, when Seconds is 0
	Seconds float64 // when > 0, run timed ops until this many seconds have passed
	Trace   bool    // also replay ops layer by layer and report the per-layer metrics
	Spans   string  // file the traced ops' spans are appended to, as JSON lines
	Scale   Scale
	// UpdateExpect names the expectations file to rewrite with this
	// run's reference digests; expectations are then not checked.
	UpdateExpect string
}

// more reports whether the timed loop that started at start and has
// done n ops goes on.
func (c Config) more(n int, start time.Time) bool {
	if c.Seconds > 0 {
		return time.Since(start).Seconds() < c.Seconds
	}
	return n < c.Ops
}

// runWorkload sets w up, runs one warm-up op and the timed ops, checks
// every op's output against the reference, and reduces the timings to
// the end-to-end metrics. With cfg.Trace it then replays as many ops
// layer by layer and adds the per-layer metrics.
func runWorkload(w workload, cfg Config, log io.Writer) (Result, error) {
	// Either variable would silently re-route the enterprises: the
	// store directory, or paper into a streaming run.
	os.Unsetenv("REPRO_SNAPSHOT_DIR")
	os.Unsetenv("REPRO_STREAM_SHARD")
	root, err := os.MkdirTemp("", "hidsbench-"+w.name+"-")
	if err != nil {
		return Result{}, err
	}
	defer os.RemoveAll(root)

	users := w.users(cfg.Scale)
	seed, err := populationSeed(cfg.Seed, users)
	if err != nil {
		return Result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	fmt.Fprintf(log, "hidsbench %s: %d users, population seed %#x\n", w.name, users, seed)
	in, setupS, err := setUp(w, root, seed, users)
	if err != nil {
		return Result{}, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	want, fromExpect := expected(w.name, cfg)
	if !fromExpect {
		want = in.ref
	}
	warm, err := in.op()
	if err != nil {
		return Result{}, fmt.Errorf("%s: warm-up op: %w", w.name, err)
	}
	if want == "" {
		want = warm.digest
	}
	if cfg.UpdateExpect != "" {
		ref := in.ref
		if ref == "" {
			ref = warm.digest
		}
		if err := updateExpect(cfg, w.name, ref); err != nil {
			return Result{}, err
		}
	}

	res := Result{Metrics: make(map[string]Metric)}
	check := func(digest string, err error) {
		res.Attempted++
		if err == nil && digest == want {
			return
		}
		res.Failed++
		if res.Failed <= 3 {
			if err == nil {
				err = fmt.Errorf("output digest %.16s…, want %.16s…", digest, want)
			}
			fmt.Fprintf(log, "hidsbench %s: op %d failed: %v\n", w.name, res.Attempted, err)
		}
	}

	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return Result{}, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var times []float64
	var opCounts []map[string]float64
	for start := time.Now(); cfg.more(len(times), start); {
		r, err := in.op()
		times = append(times, r.elapsed.Seconds())
		opCounts = append(opCounts, r.counts)
		check(r.digest, err)
	}
	runtime.ReadMemStats(&m1)
	peak, err := peakRSSMiB()
	if err != nil {
		return Result{}, err
	}
	n := float64(len(times))
	p50 := Percentile(times, 0.5)
	total := 0.0
	for _, t := range times {
		total += t
	}
	values := map[string]float64{
		"setup_s":     setupS,
		"op_p50_s":    p50,
		"op_p75_s":    Percentile(times, 0.75),
		"items_per_s": in.items * n / total,
		"peak_rss_mb": peak,
	}
	defs := EndToEnd
	if cfg.Trace {
		rec := newRecorder(w.name)
		for start, i := time.Now(), 0; cfg.more(i, start); i++ {
			rec.beginOp()
			check(in.traced(rec))
		}
		ops := summarize(rec.spans)
		layers, covered := layerMetrics(ops)
		maps.Copy(values, layers)
		for _, c := range layerCounts {
			var xs []float64
			for _, oc := range opCounts {
				if v, ok := oc[c.Name]; ok {
					xs = append(xs, v)
				}
			}
			if len(xs) > 0 {
				values[c.Name] = median(xs)
			}
		}
		values["runtime.alloc_mb_per_op"] = mib(int64(m1.TotalAlloc-m0.TotalAlloc)) / n
		values["runtime.gc_cycles_per_op"] = float64(m1.NumGC-m0.NumGC) / n
		values["glue_s"] = p50 - covered
		self := selfSeconds(ops)
		for _, name := range slices.Sorted(maps.Keys(self)) {
			fmt.Fprintf(log, "hidsbench %s: self %-34s %14.6g s/op (median of %d traced ops)\n", w.name, name, self[name], len(ops))
		}
		if cfg.Spans != "" {
			if err := appendSpans(cfg.Spans, rec.spans); err != nil {
				return Result{}, err
			}
		}
		defs = append(slices.Clone(EndToEnd), PerLayer...)
	}
	for _, d := range defs {
		res.Metrics[d.Name] = Metric{Value: values[d.Name], Unit: d.Unit}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// setUp sets the workload up setupRuns times, each in a fresh
// directory, and keeps the last instance. It returns the median set-up
// time.
func setUp(w workload, root string, seed uint64, users int) (*instance, float64, error) {
	var in *instance
	times := make([]float64, setupRuns)
	for i := range times {
		if i > 0 {
			if err := os.RemoveAll(filepath.Join(root, fmt.Sprint(i-1))); err != nil {
				return nil, 0, err
			}
		}
		dir := filepath.Join(root, fmt.Sprint(i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return nil, 0, err
		}
		start := time.Now()
		var err error
		in, err = w.setup(dir, seed, users)
		times[i] = time.Since(start).Seconds()
		if err != nil {
			return nil, 0, err
		}
	}
	return in, median(times), nil
}

func appendSpans(path string, spans []Span) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---------------------------------------------------------------------
// peak RSS

// resetPeakRSS rearms the kernel's peak-RSS watermark (VmHWM), so the
// peak reported covers the timed ops only.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0o200); err != nil {
		return fmt.Errorf("resetting the peak RSS needs Linux /proc: %w", err)
	}
	return nil
}

// peakRSSMiB reads VmHWM, the process's peak resident set, in MiB.
// Mapped store pages count toward it, unlike any Go heap statistic.
func peakRSSMiB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// ---------------------------------------------------------------------
// expected digests

//go:embed testdata/expect.json
var expectJSON []byte

// expectFile holds the reference digests of one seed at one scale.
type expectFile struct {
	Seed    uint64            `json:"seed"`
	Scale   Scale             `json:"scale"`
	Digests map[string]string `json:"digests"`
}

// expected returns the workload's checked-in digest when cfg runs the
// seed and scale it was recorded at.
func expected(workload string, cfg Config) (string, bool) {
	if cfg.UpdateExpect != "" {
		return "", false
	}
	var e expectFile
	if err := json.Unmarshal(expectJSON, &e); err != nil || e.Seed != cfg.Seed || e.Scale != cfg.Scale {
		return "", false
	}
	d, ok := e.Digests[workload]
	return d, ok
}

func updateExpect(cfg Config, workload, digest string) error {
	e := expectFile{Seed: cfg.Seed, Scale: cfg.Scale, Digests: map[string]string{}}
	var old expectFile
	if raw, err := os.ReadFile(cfg.UpdateExpect); err == nil && json.Unmarshal(raw, &old) == nil &&
		old.Seed == cfg.Seed && old.Scale == cfg.Scale && old.Digests != nil {
		e.Digests = old.Digests
	}
	e.Digests[workload] = digest
	out, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(cfg.UpdateExpect, append(out, '\n'), 0o644)
}

// ---------------------------------------------------------------------
// host stamp

// Host identifies the machine and build a result came from.
type Host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	Kernel     string `json:"kernel"`
	Revision   string `json:"revision"`
}

func hostInfo() Host {
	h := Host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Revision: "unknown"}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(raw))
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			h.Revision = rev
			if modified == "true" {
				h.Revision += "-dirty"
			}
		}
	}
	return h
}

// Record is one workload's line in the JSON-lines output of a full run.
type Record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Host     Host   `json:"host"`
	Result
}

// ---------------------------------------------------------------------
// command line

// Main is the hidsbench command. With -workload it runs that workload
// in this process and prints its Result as the last line of stdout;
// without, it runs every workload in its own child process, one after
// another, and prints one Record per workload.
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hidsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run only this workload, in this process")
	seed := fs.Uint64("seed", 1, "population seed; the attack and fault seeds derive from it")
	ops := fs.Int("ops", 40, "timed ops per workload")
	seconds := fs.Float64("seconds", 0, "if > 0, run timed ops for this many seconds instead of -ops")
	traceMode := fs.Int("trace", 0, "1 also replays each op layer by layer and reports the per-layer metrics")
	spans := fs.String("spans", "", "with -trace 1, append the spans to this file as JSON lines")
	compare := fs.Bool("compare", false, "compare two JSON-lines outputs: -compare parent.jsonl change.jsonl")
	update := fs.String("update-expect", "", "rewrite this expectations file with the run's digests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "hidsbench: -compare takes two files: parent.jsonl change.jsonl")
			return 2
		}
		regressed, err := Compare(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "hidsbench:", err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || *ops < 1 || *seconds < 0 || (*traceMode != 0 && *traceMode != 1) {
		fs.Usage()
		return 2
	}
	cfg := Config{
		Seed: *seed, Ops: *ops, Seconds: *seconds, Trace: *traceMode == 1,
		Spans: *spans, Scale: DefaultScale, UpdateExpect: *update,
	}
	if *workload == "" {
		return runAll(cfg, stdout, stderr)
	}
	w, ok := lookup(*workload)
	if !ok {
		fmt.Fprintf(stderr, "hidsbench: unknown workload %q\n", *workload)
		return 2
	}
	fmt.Fprintf(stderr, "hidsbench %s: seed %d, host %+v\n", w.name, cfg.Seed, hostInfo())
	res, err := runWorkload(w, cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "hidsbench:", err)
		return 1
	}
	if cfg.Trace {
		// One line holds one kind of metric: a traced run's line the
		// per-layer ones, an untraced run's the end-to-end ones.
		for _, d := range EndToEnd {
			delete(res.Metrics, d.Name)
		}
	}
	report(stderr, w.name, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "hidsbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runAll runs every workload in its own child process, so each one's
// peak RSS and heap state are its own, and prints one Record each.
func runAll(cfg Config, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "hidsbench:", err)
		return 1
	}
	if cfg.Spans != "" {
		if err := os.WriteFile(cfg.Spans, nil, 0o644); err != nil {
			fmt.Fprintln(stderr, "hidsbench:", err)
			return 1
		}
	}
	host := hostInfo()
	status := 0
	traceMode := "0"
	if cfg.Trace {
		traceMode = "1"
	}
	for _, w := range workloads {
		var out bytes.Buffer
		cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(cfg.Seed),
			"-ops", fmt.Sprint(cfg.Ops), "-seconds", fmt.Sprint(cfg.Seconds), "-trace", traceMode,
			"-spans", cfg.Spans, "-update-expect", cfg.UpdateExpect)
		cmd.Stdout = &out
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "hidsbench: workload %s: %v\n", w.name, err)
			status = 1
			continue
		}
		var res Result
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			fmt.Fprintf(stderr, "hidsbench: workload %s: bad result line: %v\n", w.name, err)
			status = 1
			continue
		}
		if !res.Correct {
			status = 1
		}
		line, err := json.Marshal(Record{Workload: w.name, Seed: cfg.Seed, Host: host, Result: res})
		if err != nil {
			fmt.Fprintln(stderr, "hidsbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	return status
}
