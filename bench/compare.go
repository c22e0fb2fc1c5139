package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// Verdicts of one metric on one workload.
const (
	verdictSame       = "same"
	verdictGain       = "gain"
	verdictRegression = "regression"
	verdictUnresolved = "unresolved"
)

// comparison is one metric on one workload, parent against change.
type comparison struct {
	parent, change [3]float64 // first quartile, median, third quartile
	wins, pairs    int        // pairs (parent run i, change run i) the change wins
	verdict        string
}

// judge applies the regression gate to one metric: regression when the
// change's median is worse than the parent's by more than the bound;
// otherwise unresolved when either side's spread (quartile distance
// over median) exceeds the bound, unless every change run beats every
// parent run; gain when the change wins at least nine tenths of the
// pairs and the medians differ by more than the parent's spread; else
// same. Ties win for neither side.
func judge(def MetricDef, p, c []float64) comparison {
	var r comparison
	r.parent[0], r.parent[1], r.parent[2] = Quartiles(p)
	r.change[0], r.change[1], r.change[2] = Quartiles(c)
	// better(a, b) reports whether a reads better than b.
	better := func(a, b float64) bool {
		if def.Better == "higher" {
			return a > b
		}
		return a < b
	}
	r.pairs = min(len(p), len(c))
	for i := 0; i < r.pairs; i++ {
		if better(c[i], p[i]) {
			r.wins++
		}
	}
	pm, cm := r.parent[1], r.change[1]
	worse := (cm - pm) / math.Abs(pm)
	if def.Better == "higher" {
		worse = -worse
	}
	spread := func(q [3]float64) float64 { return (q[2] - q[0]) / math.Abs(q[1]) }
	allBetter := true
	for _, cv := range c {
		for _, pv := range p {
			allBetter = allBetter && better(cv, pv)
		}
	}
	switch {
	case len(p) == 0 || len(c) == 0:
		r.verdict = verdictUnresolved
	case worse > def.Bound:
		r.verdict = verdictRegression
	case (spread(r.parent) > def.Bound || spread(r.change) > def.Bound) && !allBetter:
		r.verdict = verdictUnresolved
	case r.pairs > 0 && float64(r.wins) >= 0.9*float64(r.pairs) && better(cm, pm) &&
		math.Abs(cm-pm) > r.parent[2]-r.parent[0]:
		r.verdict = verdictGain
	default:
		r.verdict = verdictSame
	}
	return r
}

// readRecords reads a JSON-lines file of Records, grouped by workload
// in first-seen order.
func readRecords(path string) (map[string][]Result, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	byWorkload := make(map[string][]Result)
	var order []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if _, ok := byWorkload[rec.Workload]; !ok {
			order = append(order, rec.Workload)
		}
		byWorkload[rec.Workload] = append(byWorkload[rec.Workload], rec.Result)
	}
	return byWorkload, order, sc.Err()
}

// Compare judges every end-to-end metric on every workload of two
// JSON-lines outputs — the parent's runs and the change's, in the
// order they alternated — and writes one row per pair. It reports a
// regression when any metric regressed or the change failed a larger
// share of its ops.
func Compare(parentPath, changePath string, w io.Writer) (regressed bool, err error) {
	parent, order, err := readRecords(parentPath)
	if err != nil {
		return false, err
	}
	change, _, err := readRecords(changePath)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\tchange\twins\tverdict")
	for _, wl := range order {
		p, c := parent[wl], change[wl]
		if len(c) == 0 {
			fmt.Fprintf(tw, "%s\t(all)\t%d runs\tno runs\t\t\t%s\n", wl, len(p), verdictRegression)
			regressed = true
			continue
		}
		for _, def := range EndToEnd {
			r := judge(def, values(p, def.Name), values(c, def.Name))
			fmt.Fprintf(tw, "%s\t%s\t%.5g [%.5g, %.5g] %s\t%.5g [%.5g, %.5g]\t%+.1f%%\t%d/%d\t%s\n",
				wl, def.Name, r.parent[1], r.parent[0], r.parent[2], def.Unit,
				r.change[1], r.change[0], r.change[2], 100*(r.change[1]-r.parent[1])/math.Abs(r.parent[1]),
				r.wins, r.pairs, r.verdict)
			regressed = regressed || r.verdict == verdictRegression
		}
		pf, cf := failRatio(p), failRatio(c)
		verdict := verdictSame
		if cf > pf {
			verdict = verdictRegression
			regressed = true
		}
		fmt.Fprintf(tw, "%s\tfail_ratio\t%.4g\t%.4g\t\t\t%s\n", wl, pf, cf, verdict)
	}
	return regressed, tw.Flush()
}

func values(rs []Result, metric string) []float64 {
	var xs []float64
	for _, r := range rs {
		if m, ok := r.Metrics[metric]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func failRatio(rs []Result) float64 {
	var failed, attempted int
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return float64(failed) / float64(max(attempted, 1))
}
