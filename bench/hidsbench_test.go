package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyScale keeps the smoke test well within 15 s under -race. Below
// 24 users, populations that pass the selection's share test become
// too rare to find quickly; above about 40, the race detector slows the
// healing fleet's agents past its 5 ms link wait and uploads fail.
var tinyScale = Scale{BuildUsers: 24, PaperUsers: 24, FleetAgents: 24, HealAgents: 24}

// benchmarkJSON is the part of the repository's BENCHMARK.json the
// benchmark must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesDefinitions keeps BENCHMARK.json and the
// metric and workload tables in step.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	if len(b.EndToEnd) != len(EndToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark %d", len(b.EndToEnd), len(EndToEnd))
	}
	for i, m := range b.EndToEnd {
		d := EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(PerLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark %d", len(b.PerLayer), len(PerLayer))
	}
	for i, m := range b.PerLayer {
		d := PerLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
}

// TestSmoke runs every workload end to end at tiny scale, traced, so
// each runs two ops — one timed, one replayed layer by layer — after
// its set-ups and warm-up: every op must pass its check, and the result
// must carry every metric BENCHMARK.json names, with its unit, and no
// other.
func TestSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	want := map[string]string{}
	for _, m := range b.EndToEnd {
		want[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		want[m.Name] = m.Unit
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			cfg := Config{Seed: 1, Ops: 1, Trace: true, Scale: tinyScale}
			res, err := runWorkload(w, cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted != 2*cfg.Ops {
				t.Errorf("correct=%t, %d of %d ops failed", res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
			}
			for name, unit := range want {
				if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
					t.Errorf("metric %s = %+v, want unit %s", name, got, unit)
				}
			}
			for _, m := range EndToEnd {
				if v := res.Metrics[m.Name].Value; !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, v)
				}
			}
		})
	}
}

func TestExpectFileParses(t *testing.T) {
	var e expectFile
	if err := json.Unmarshal(expectJSON, &e); err != nil {
		t.Fatal(err)
	}
	if e.Scale != DefaultScale {
		t.Errorf("expectations recorded at scale %+v, the benchmark runs %+v", e.Scale, DefaultScale)
	}
	for _, w := range workloads {
		if e.Digests[w.name] == "" {
			t.Errorf("no expected digest for %s", w.name)
		}
	}
}

func TestPercentileP75Of40LeavesTenBeyond(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted on purpose
	}
	p75 := Percentile(xs, 0.75)
	beyond := 0
	for _, x := range xs {
		if x > p75 {
			beyond++
		}
	}
	if beyond != 10 {
		t.Fatalf("p75 = %v leaves %d samples beyond it, want 10", p75, beyond)
	}
	if p50 := Percentile(xs, 0.5); p50 != 20 {
		t.Fatalf("p50 = %v, want 20", p50)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, med, q3 := Quartiles(xs)
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestSelfTimeSubtractsConcurrentChildrenOnce(t *testing.T) {
	spans := []Span{
		{Op: 1, ID: 1, Name: "op", Start: 0, End: 10},
		{Op: 1, ID: 2, Parent: 1, Name: "a", Start: 1, End: 5, Work: 4},
		{Op: 1, ID: 3, Parent: 1, Name: "a", Start: 2, End: 6, Work: 4},
		{Op: 1, ID: 4, Parent: 2, Name: "b", Start: 1, End: 3},
	}
	ops := summarize(spans)
	if len(ops) != 1 {
		t.Fatalf("%d ops, want 1", len(ops))
	}
	op := ops[0]
	// The children of "op" cover [1, 6]; "a" spans 4 + 4 s minus 2 s of "b".
	if op.covered != 5 || op.self["op"] != 5 || op.self["a"] != 6 || op.self["b"] != 2 {
		t.Fatalf("covered %v, self %v", op.covered, op.self)
	}
	m, _ := layerMetrics(ops)
	if m["analysis.build_range_per_s"] != 0 {
		t.Fatalf("a layer no span names reads %v, want 0", m["analysis.build_range_per_s"])
	}
}

// writeRecords writes one JSON line per value: every end-to-end metric
// reads 1 except metric, which reads the value.
func writeRecords(t *testing.T, name, metric string, vals []float64, failed int) string {
	t.Helper()
	var b strings.Builder
	for _, v := range vals {
		rec := Record{Workload: "w", Seed: 1, Result: Result{Correct: failed == 0, Attempted: 40, Failed: failed, Metrics: map[string]Metric{}}}
		for _, d := range EndToEnd {
			rec.Metrics[d.Name] = Metric{Value: 1, Unit: d.Unit}
		}
		rec.Metrics[metric] = Metric{Value: v, Unit: "s"}
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(&b, string(line))
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompare(t *testing.T) {
	parentVals := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(parentVals))
		for i, v := range parentVals {
			out[i] = v * f
		}
		return out
	}
	for _, tc := range []struct {
		name      string
		change    []float64
		failed    int
		verdict   string
		regressed bool
	}{
		{"win", scaled(0.8), 0, verdictGain, false},
		{"tie", parentVals, 0, verdictSame, false},
		{"unresolved", []float64{0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 0.65, 1.35}, 0, verdictUnresolved, false},
		{"regression", scaled(1.4), 0, verdictRegression, true},
		{"more failures", parentVals, 1, verdictSame, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			parent := writeRecords(t, "parent.jsonl", "op_p50_s", parentVals, 0)
			change := writeRecords(t, "change.jsonl", "op_p50_s", tc.change, tc.failed)
			var out strings.Builder
			regressed, err := Compare(parent, change, &out)
			if err != nil {
				t.Fatal(err)
			}
			if regressed != tc.regressed {
				t.Errorf("regressed = %t, want %t", regressed, tc.regressed)
			}
			got := ""
			for _, line := range strings.Split(out.String(), "\n") {
				if f := strings.Fields(line); len(f) > 2 && f[0] == "w" && f[1] == "op_p50_s" {
					got = f[len(f)-1]
				}
			}
			if got != tc.verdict {
				t.Errorf("op_p50_s verdict %q, want %q\n%s", got, tc.verdict, out.String())
			}
		})
	}
}
