package bench

import (
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
	"sort"
)

// MetricDef declares one metric the benchmark reports: its unit, which
// direction is better and, for end-to-end metrics, the bound — the
// share of the parent's median by which it may worsen before a change
// counts as a regression. BENCHMARK.json at the repository root lists
// the same metrics; the smoke test keeps the two in step.
type MetricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// EndToEnd are the metrics a user of either plane sees, measured with
// tracing off. An item is one user-week on the batch workloads and one
// host-window (one host monitoring one 15-minute window) on the fleet
// workloads. The timing bounds are as wide as allowed because on a
// shared 2-CPU host the same commit's runs spread by 4 to 20% (quartile
// distance over median): a fixed single-threaded task drifts by about
// 10% from one minute to the next there. Peak RSS repeats within 7%.
var EndToEnd = []MetricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_s", "s", "lower", 0.25},
	{"op_p75_s", "s", "lower", 0.25},
	{"items_per_s", "items/s", "higher", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.15},
}

// layerSpans lists every span name the traced replays record together
// with the unit of the work it reports. Each becomes the per-layer
// metric "<span>_per_s": work done per second of the span's self time,
// the layer's throughput. A layer a workload never calls reads 0.
var layerSpans = []struct{ span, work string }{
	{"trace.fill", "user-weeks"},
	{"analysis.build_range", "users"},
	{"snapshot.verify_part", "MiB"},
	{"snapshot.merge", "MiB"},
	{"snapshot.open", "MiB"},
	{"analysis.tailstats", "columns"},
	{"analysis.sweep", "columns"},
	{"core.configure", "columns"},
	{"core.evaluate", "columns"},
	{"analysis.stream_pass", "users"},
	{"repro.fig1", "runs"},
	{"repro.fig2", "runs"},
	{"repro.table2", "runs"},
	{"repro.fig3a", "runs"},
	{"repro.fig3b", "runs"},
	{"repro.table3", "runs"},
	{"repro.fig4a", "runs"},
	{"repro.fig4b", "runs"},
	{"repro.fig5a", "runs"},
	{"repro.fig5b", "runs"},
	{"fleet.connect", "hosts"},
	{"console.configure", "hosts"},
	{"fleet.replay", "host-windows"},
	{"core.configure_probe", "hosts"},
	{"collab.detect", "host-windows"},
}

// layerCounts are per-layer metrics read from span counts (traced ops)
// or op counts (untraced ops): the median per op.
var layerCounts = []MetricDef{
	{"snapshot.sealed_mb", "MiB", "lower", 0},
	{"buildctl.attempts_per_range", "ratio", "lower", 0},
	{"analysis.shards", "count", "lower", 0},
	{"console.alerts_per_s", "alerts/s", "higher", 0},
	{"console.reconnects", "count", "lower", 0},
	{"console.dup_batches_dropped", "count", "lower", 0},
	{"console.stale_uploads_dropped", "count", "lower", 0},
	{"console.epochs", "count", "lower", 0},
	{"collab.detect_lag_windows", "windows", "lower", 0},
}

// PerLayer are the traced run's metrics: the layer rates, the layer
// counts, the runtime's allocation volume and GC cycles per untraced
// op, and glue_s — the untraced op's median minus the time the traced
// layer spans cover, i.e. the part of an op no layer accounts for
// (coordinator scheduling, memo glue, tracing overhead).
var PerLayer = func() []MetricDef {
	var defs []MetricDef
	for _, l := range layerSpans {
		defs = append(defs, MetricDef{Name: l.span + "_per_s", Unit: l.work + "/s", Better: "higher"})
	}
	defs = append(defs, layerCounts...)
	return append(defs,
		MetricDef{"runtime.alloc_mb_per_op", "MiB", "lower", 0},
		MetricDef{"runtime.gc_cycles_per_op", "count", "lower", 0},
		MetricDef{"glue_s", "s", "lower", 0})
}()

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is one workload run. Its JSON form is the line the benchmark
// prints last: exactly these four keys.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Percentile returns the nearest-rank q-quantile of xs: the smallest
// sample with at least q·n samples at or below it. Of 40 samples, the
// 0.75 percentile leaves exactly 10 above it — the highest percentile
// the benchmark reports with ten samples beyond it.
func Percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// Quartiles returns the first quartile, median and third quartile of
// xs with the "exclusive" method of Python's statistics.quantiles(n=4),
// which is how the spread of repeated runs is judged.
func Quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	n := len(s)
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// median is the middle of xs (mean of the two middle samples for even n).
func median(xs []float64) float64 {
	_, m, _ := Quartiles(xs)
	return m
}

// report prints every metric of r by name with its unit.
func report(w io.Writer, workload string, r Result) {
	for _, n := range slices.Sorted(maps.Keys(r.Metrics)) {
		fmt.Fprintf(w, "hidsbench %s: %-40s %14.6g %s\n", workload, n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	ratio := float64(r.Failed) / float64(max(r.Attempted, 1))
	fmt.Fprintf(w, "hidsbench %s: %-40s %14.6g ratio (%d of %d ops)\n", workload, "fail_ratio", ratio, r.Failed, r.Attempted)
}
