package bench

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer during a traced op. Spans of one
// op share Op; Parent is the ID of the span that made the call (0 for
// the op's root spans). Times are seconds since the recorder started.
type Span struct {
	Workload string             `json:"workload"`
	Op       int                `json:"op"`
	ID       int                `json:"id"`
	Parent   int                `json:"parent"`
	Name     string             `json:"name"`
	Start    float64            `json:"start_s"`
	End      float64            `json:"end_s"`
	Work     float64            `json:"work,omitempty"`
	Counts   map[string]float64 `json:"counts,omitempty"`
}

// recorder keeps the spans of a traced run in memory. It is safe for
// concurrent use: layers fan work out over goroutines, and each
// goroutine records its own spans.
type recorder struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	op    int
	spans []Span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now()}
}

// beginOp starts a new op; spans opened from now on belong to it.
func (r *recorder) beginOp() {
	r.mu.Lock()
	r.op++
	r.mu.Unlock()
}

// open starts a span and returns its ID.
func (r *recorder) open(parent int, name string) int {
	now := time.Since(r.t0).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{Workload: r.workload, Op: r.op, ID: len(r.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(r.spans)
}

// close ends span id, crediting it with work in its layer's unit.
func (r *recorder) close(id int, work float64) {
	now := time.Since(r.t0).Seconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.spans[id-1].Work = work
	r.mu.Unlock()
}

// span runs fn as a span named name under parent. fn receives the
// span's ID so it can parent calls it makes in turn.
func (r *recorder) span(parent int, name string, work float64, fn func(id int) error) error {
	id := r.open(parent, name)
	err := fn(id)
	r.close(id, work)
	return err
}

// add records a span whose bounds were observed rather than wrapped,
// such as the phases of a fleet run read off its log timestamps.
func (r *recorder) add(parent int, name string, start, end time.Time, work float64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{
		Workload: r.workload, Op: r.op, ID: len(r.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(r.t0).Seconds(), End: end.Sub(r.t0).Seconds(), Work: work,
	})
	return len(r.spans)
}

// count adds v to the named count of span id.
func (r *recorder) count(id int, name string, v float64) {
	r.mu.Lock()
	s := &r.spans[id-1]
	if s.Counts == nil {
		s.Counts = make(map[string]float64)
	}
	s.Counts[name] += v
	r.mu.Unlock()
}

// opStats is what one traced op's spans add up to.
type opStats struct {
	self    map[string]float64 // summed self time per span name, seconds
	work    map[string]float64 // summed work per span name
	counts  map[string]float64 // summed counts across the op's spans
	covered float64            // time the children of the root "op" span cover
}

// summarize computes each op's self times and counts. A span's self
// time is its duration minus the part of it its child spans cover, so
// concurrent children (parts built on several goroutines) are counted
// once.
func summarize(spans []Span) []opStats {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byOp := make(map[int]*opStats)
	var ops []int
	for _, s := range spans {
		st := byOp[s.Op]
		if st == nil {
			st = &opStats{self: map[string]float64{}, work: map[string]float64{}, counts: map[string]float64{}}
			byOp[s.Op] = st
			ops = append(ops, s.Op)
		}
		cov := covered(s.Start, s.End, children[s.ID])
		st.self[s.Name] += s.End - s.Start - cov
		st.work[s.Name] += s.Work
		for k, v := range s.Counts {
			st.counts[k] += v
		}
		if s.Parent == 0 && s.Name == "op" {
			st.covered += cov
		}
	}
	sort.Ints(ops)
	out := make([]opStats, len(ops))
	for i, op := range ops {
		out[i] = *byOp[op]
	}
	return out
}

// covered returns the length of [start, end] covered by the union of
// the spans' intervals.
func covered(start, end float64, spans []Span) float64 {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]float64, 0, len(spans))
	for _, s := range spans {
		lo, hi := max(s.Start, start), min(s.End, end)
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, curLo, curHi := 0.0, 0.0, -1.0
	for _, v := range iv {
		if v[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// layerMetrics reduces the traced ops to the per-layer rates and
// counts, each the median over ops, and returns the median time the
// root span's children cover.
func layerMetrics(ops []opStats) (metrics map[string]float64, covered float64) {
	per := func(f func(op opStats) float64) float64 {
		xs := make([]float64, len(ops))
		for i, op := range ops {
			xs[i] = f(op)
		}
		return median(xs)
	}
	metrics = make(map[string]float64)
	for _, l := range layerSpans {
		metrics[l.span+"_per_s"] = per(func(op opStats) float64 {
			if op.self[l.span] <= 0 {
				return 0
			}
			return op.work[l.span] / op.self[l.span]
		})
	}
	for _, c := range layerCounts {
		metrics[c.Name] = per(func(op opStats) float64 { return op.counts[c.Name] })
	}
	return metrics, per(func(op opStats) float64 { return op.covered })
}

// selfSeconds returns each span name's median self time per op, for
// the human-readable report.
func selfSeconds(ops []opStats) map[string]float64 {
	names := make(map[string]bool)
	for _, op := range ops {
		for n := range op.self {
			names[n] = true
		}
	}
	out := make(map[string]float64, len(names))
	for n := range names {
		xs := make([]float64, len(ops))
		for i, op := range ops {
			xs[i] = op.self[n]
		}
		out[n] = median(xs)
	}
	return out
}
