package stats

import (
	"fmt"
	"math"
	"sort"
)

// Compressed is a mergeable run-length-compressed empirical
// distribution: the streaming counterpart of Empirical for group
// threshold derivation when the member columns cannot all be resident
// at once. It stores each distinct sample value once, together with
// the cumulative sample count at or below it, so quantiles are exact
// order-statistic lookups over the virtual concatenated-and-sorted
// sample array — bit-identical to QuantileSorted over the members'
// samples copied into one slice and sorted — while memory scales with
// the number of distinct values (feature columns are window counts
// with heavy repetition), not the number of samples. Its moments
// (Mean, StdDev) and threshold frontier are bit-identical to the same
// sorted copy's too, so core.Configure derives every group threshold
// from one without ever building that copy.
//
// The zero value is an empty accumulator. Folding is commutative and
// associative: any interleaving of AddEmpiricals/Merge calls
// over the same multiset of samples yields the same accumulator state,
// which is what makes the parallel shard fold deterministic regardless
// of worker scheduling.
type Compressed struct {
	uniq []float64 // distinct sample values, ascending
	cum  []int64   // cum[i] = number of samples <= uniq[i]

	// The other generation's buffers. Every fold writes its result
	// into them and swaps, so the two generations are the ping-pong
	// pair the merges alternate between and steady-state folding
	// allocates only on growth.
	uniqScratch []float64
	cumScratch  []int64
	// segs holds run-list boundaries between AddEmpiricals' merge
	// levels.
	segs []int
}

// Release drops c's generation buffers, keeping its runs: the form to
// hold once folding is done. A later fold allocates them again.
func (c *Compressed) Release() {
	c.uniqScratch, c.cumScratch, c.segs = nil, nil, nil
}

// Reset empties the accumulator, keeping its buffers for the next
// fold.
func (c *Compressed) Reset() {
	c.uniq, c.cum = c.uniq[:0], c.cum[:0]
}

// N returns the total number of samples folded in.
func (c *Compressed) N() int64 {
	if len(c.cum) == 0 {
		return 0
	}
	return c.cum[len(c.cum)-1]
}

// AddEmpiricals folds every member of es into the accumulator: the
// same state as folding each member in turn, for a fraction
// of the work. Members are run-length compressed into leaf run lists,
// the accumulator's own runs join as the last leaf, and neighbouring
// leaves are merged pairwise, level by level, ping-ponging between the
// accumulator's two generation buffers until one run list — the new
// state — is left. Folding k members one at a time re-merges the whole
// accumulator k times; a batch of k touches each run O(log k) times.
// Nil or empty members are skipped. Members are not retained.
func (c *Compressed) AddEmpiricals(es []*Empirical) {
	for len(es) > 0 {
		es = es[c.fold(len(es), func(i int) []float64 {
			if es[i] == nil {
				return nil
			}
			// Empirical's invariant already guarantees sorted and
			// NaN-free.
			return es[i].sorted
		}):]
	}
}

// fold merges a batch of the n sorted columns leaf(0), leaf(1), ...
// (empty ones are skipped) and the accumulator's current runs
// bottom-up, and returns how many columns it consumed (at least one).
// The batch is the longest prefix whose runs fit the buffers' free
// room beside the accumulator's own runs; only when not even one
// column fits do the buffers grow, to twice what that fold needs. So
// the buffers stay within a small multiple of the accumulator — as
// they would folding one column at a time — while every batch of
// leaves is at least as large as the accumulator it carries along,
// which bounds that carry's cost by the leaves' own.
func (c *Compressed) fold(n int, leaf func(i int) []float64) int {
	u, k := c.uniqScratch[:0], c.cumScratch[:0]
	// A merge level never outgrows its input, so leaf runs that fit
	// beside the accumulator's own fit every level of both halves of
	// the ping-pong pair.
	room := min(cap(u), cap(c.uniq)) - len(c.uniq)
	segs := append(c.segs[:0], 0)
	taken := 0
	for ; taken < n; taken++ {
		col := leaf(taken)
		if len(col) == 0 {
			continue
		}
		var fits bool
		if u, k, fits = appendRuns(u, k, col, room); !fits {
			if len(segs) > 1 {
				break // the batch is full; col opens the next one
			}
			need := len(c.uniq) + numRuns(col)
			u, k = make([]float64, 0, 2*need), make([]int64, 0, 2*need)
			room = 2*need - len(c.uniq)
			u, k, _ = appendRuns(u, k, col, room)
		}
		segs = append(segs, len(u))
	}
	if len(segs) == 1 {
		c.uniqScratch, c.cumScratch, c.segs = u, k, segs
		return taken // no column has samples
	}
	if len(c.uniq) > 0 {
		u, k = append(u, c.uniq...), append(k, c.cum...)
		segs = append(segs, len(u))
	}
	// c's runs are now a leaf, so its buffers are free to be the
	// other half of the ping-pong pair.
	du, dk := c.uniq[:0], c.cum[:0]
	if cap(du) < len(u) {
		du, dk = make([]float64, 0, cap(u)), make([]int64, 0, cap(u))
	}
	for len(segs) > 2 {
		du, dk = du[:0], dk[:0]
		// Level pass: merge leaf pairs (2t, 2t+1), carrying an odd
		// last leaf over. Boundary t is written only after every
		// boundary it overwrites has been read.
		w := 1
		for s := 1; s < len(segs); s += 2 {
			lo, mid := segs[s-1], segs[s]
			if s+1 < len(segs) {
				hi := segs[s+1]
				du, dk = mergeRuns(du, dk, u[lo:mid], k[lo:mid], u[mid:hi], k[mid:hi])
			} else {
				du, dk = append(du, u[lo:mid]...), append(dk, k[lo:mid]...)
			}
			segs[w] = len(du)
			w++
		}
		segs = segs[:w]
		u, k, du, dk = du, dk, u, k
	}
	c.uniq, c.cum = u, k
	c.uniqScratch, c.cumScratch, c.segs = du[:0], dk[:0], segs[:0]
	return taken
}

// numRuns returns the number of distinct values in a sorted column.
func numRuns(col []float64) int {
	n := 0
	for i, v := range col {
		if i == 0 || v != col[i-1] {
			n++
		}
	}
	return n
}

// appendRuns appends the run-length compression of one sorted column
// — each distinct value with the column's count of samples at or below
// it — to (u, k), unless that would take u past limit runs: then it
// returns (u, k) unchanged and false.
func appendRuns(u []float64, k []int64, col []float64, limit int) ([]float64, []int64, bool) {
	start := len(u)
	for i := 0; i < len(col); {
		if len(u) >= limit {
			return u[:start], k[:start], false
		}
		v := col[i]
		j := i + 1
		for j < len(col) && col[j] == v {
			j++
		}
		u, k = append(u, v), append(k, int64(j))
		i = j
	}
	return u, k, true
}

// mergeRuns appends the merge of two run lists (ascending distinct
// values with cumulative counts) to (u, k): every value of either,
// once, with the summed count of samples at or below it; a value in
// both keeps a's representation. It is the one merge loop every fold
// goes through.
func mergeRuns(u []float64, k []int64, aU []float64, aC []int64, bU []float64, bC []int64) ([]float64, []int64) {
	i, j := 0, 0
	var a, b int64 // samples of each input <= the last value written
	for i < len(aU) && j < len(bU) {
		x, y := aU[i], bU[j]
		switch {
		case x < y:
			a = aC[i]
			i++
		case y < x:
			b = bC[j]
			j++
			x = y
		default:
			a, b = aC[i], bC[j]
			i++
			j++
		}
		u, k = append(u, x), append(k, a+b)
	}
	for ; i < len(aU); i++ {
		u, k = append(u, aU[i]), append(k, aC[i]+b)
	}
	for ; j < len(bU); j++ {
		u, k = append(u, bU[j]), append(k, a+bC[j])
	}
	return u, k
}

// Merge folds another accumulator's entire multiset into c. o is left
// unchanged; merging with an empty or nil accumulator is a no-op.
func (c *Compressed) Merge(o *Compressed) {
	if o == nil || len(o.uniq) == 0 {
		return
	}
	u, k := c.uniqScratch[:0], c.cumScratch[:0]
	if n := len(c.uniq) + len(o.uniq); cap(u) < n {
		// Grow once, to twice the merge's bound: an accumulator that
		// takes one Merge per shard then reuses its buffers for the
		// next merges instead of regrowing them by append, run by run.
		u, k = make([]float64, 0, 2*n), make([]int64, 0, 2*n)
	}
	u, k = mergeRuns(u, k, c.uniq, c.cum, o.uniq, o.cum)
	c.uniqScratch, c.cumScratch = c.uniq[:0], c.cum[:0]
	c.uniq, c.cum = u, k
}

// at returns the k-th (0-based) order statistic of the virtual
// expanded sample array.
func (c *Compressed) at(k int64) float64 {
	i := sort.Search(len(c.cum), func(i int) bool { return c.cum[i] > k })
	return c.uniq[i]
}

// Quantile computes the Hyndman-Fan type 7 q-quantile of the folded
// multiset, bit-identical to QuantileSorted over the fully expanded
// sorted sample array: the order statistics it interpolates between
// are the same float64 values, so the arithmetic is
// operand-for-operand the same.
func (c *Compressed) Quantile(q float64) (float64, error) {
	n := c.N()
	if n == 0 {
		return 0, ErrNoSamples
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("stats: quantile %g outside [0, 1]", q)
	}
	if n == 1 {
		return c.at(0), nil
	}
	h := q * float64(n-1)
	lo := int64(math.Floor(h))
	if lo >= n-1 {
		return c.at(n - 1), nil
	}
	frac := h - float64(lo)
	a := c.at(lo)
	return a + frac*(c.at(lo+1)-a), nil
}

// Mean returns the sample mean of the folded multiset, or 0 when it is
// empty, bit-identical to Empirical.Mean over the expanded sorted
// sample array: each run's value is added once per sample, in
// ascending order, one addition at a time — the same summation.
func (c *Compressed) Mean() float64 {
	n := c.N()
	if n == 0 {
		return 0
	}
	var sum float64
	var prev int64
	for i, v := range c.uniq {
		for ; prev < c.cum[i]; prev++ {
			sum += v
		}
	}
	return sum / float64(n)
}

// StdDev returns the sample standard deviation (denominator n-1) of
// the folded multiset, or 0 when fewer than two samples exist,
// bit-identical to Empirical.StdDev by the same run-ordered summation
// as Mean.
func (c *Compressed) StdDev() float64 {
	n := c.N()
	if n < 2 {
		return 0
	}
	mean := c.Mean()
	var ss float64
	var prev int64
	for i, v := range c.uniq {
		d := v - mean
		for ; prev < c.cum[i]; prev++ {
			ss += d * d
		}
	}
	return math.Sqrt(ss / float64(n-1))
}

// NewFrontierCompressed builds the threshold frontier of the folded
// multiset: bit-identical to NewFrontier over the concatenated and
// sorted member samples. The accumulator's (uniq, cum) runs are exactly the
// run-length compression Frontier.Reset would compute from the merged
// sorted column — pcdf[i] = float64(count <= uniq[i-1]) / n, the same
// division on the same integers — and the shifted-quantile ladder
// interpolates the same order statistics, so the resulting sweep
// visits the same (t, fp, fn) sequence.
func NewFrontierCompressed(c *Compressed, attack []float64) (*Frontier, error) {
	if c == nil || c.N() == 0 {
		return nil, ErrNoSamples
	}
	f := &Frontier{}
	var bases ladderBases
	for q, p := range frontierQuantiles {
		base, err := c.Quantile(p)
		if err != nil {
			return nil, err
		}
		bases[q] = base
	}
	f.setAttack(attack, &bases)
	nF := float64(c.N())
	f.uniq = append([]float64(nil), c.uniq...)
	f.pcdf = make([]float64, 0, len(c.cum)+1)
	f.pcdf = append(f.pcdf, 0)
	for _, cnt := range c.cum {
		f.pcdf = append(f.pcdf, float64(cnt)/nF)
	}
	return f, nil
}
