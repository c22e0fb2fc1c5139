package stats

import (
	"math"
	"sort"
	"sync"
)

// frontierQuantiles is the coarse quantile ladder of the frontier's
// candidate-set contract: attack-shifted candidate thresholds are
// generated at exactly these training quantiles. The ladder is part
// of the engine's behavioral contract — the objective-optimizing
// heuristics' brute-force reference enumerates the same points — so
// changing it changes every utility/F-measure threshold in the repro.
var frontierQuantiles = [...]float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1}

// Frontier is the threshold-frontier engine: given one training
// distribution and a set of additive attack magnitudes, it enumerates
// every candidate threshold in ascending order together with its
// exact operating point —
//
//	fp(T) = P(g > T)                     (training false-positive rate)
//	fn(T) = avg_b P(g + b <= T)          (missed-detection rate)
//
// — in one merge-sweep with monotone two-pointer cursors. The
// candidate set is the union of
//
//   - every training sample, and
//   - every coarse training quantile (frontierQuantiles) shifted by
//     every attack magnitude (these matter when attacks are larger
//     than the benign range),
//
// deduplicated by float equality: exactly the set the pre-frontier
// brute-force scan built in a map and probed with per-candidate
// binary searches. Candidates are never materialized — the sweep
// streams them from the run-length-compressed training column and
// the (tiny) sorted shifted-quantile buffer — so a frontier owns only
// its compressed column and the shifted-quantile buffer, and a
// Reset/Visit cycle performs zero allocations once those buffers have
// grown.
//
// Attack sweeps are ascending in practice (core's sweeps come from
// GeomSpace), and the frontier exploits that exactly when it holds —
// every magnitude finite, none −0, each at least the one before:
//
//   - the shifted ladder is a merge of its sorted rows, one per coarse
//     quantile, rather than a sort of the whole ladder;
//   - the sweep sums fn over only the magnitudes whose cursor has
//     left the column's start (a prefix of the attack that only grows
//     with T); the others would each add pcdf[0] = +0.
//
// Any other attack takes the plain sort and the full cursor loop. Both
// paths visit the same (t, fp, fn) sequence, bits included.
//
// A Frontier retains a (read-only) reference to the attack slice,
// which must stay unmodified for as long as the frontier is used; the
// training distribution is compressed into owned buffers during Reset
// and not retained. The zero value is empty; Reset before use. After
// Reset, Visit and Maximize are read-only (sweep cursors live on the
// caller's stack), so one built frontier may be swept from many
// goroutines concurrently. Reset itself must not race with sweeps.
type Frontier struct {
	attack  []float64 // attack magnitudes (shared, read-only)
	shifted []float64 // sorted attack-shifted coarse quantiles (owned)
	// ordered reports that attack is ascending, finite and free of
	// −0: the precondition of the ladder merge and the sweep's prefix.
	ordered bool
	// uniq and pcdf are the run-length-compressed training column:
	// uniq holds the distinct sample values ascending and pcdf[i] is
	// the empirical CDF after consuming the first i of them —
	// pcdf[0] = 0 and pcdf[i] = float64(|{g <= uniq[i-1]}|)/n, the
	// exact division Empirical.CDF performs, precomputed once. Feature
	// columns are window counts with heavy value repetition, so
	// |uniq| is typically far below the raw sample count and every
	// sweep runs over the compressed column with zero divisions.
	uniq, pcdf []float64
}

// NewFrontier builds a frontier over a training distribution and a
// set of attack magnitudes. attack may be empty, in which case the
// candidate set is the training samples alone and fn is identically
// zero.
func NewFrontier(train *Empirical, attack []float64) (*Frontier, error) {
	f := &Frontier{}
	if err := f.Reset(train, attack); err != nil {
		return nil, err
	}
	return f, nil
}

// Reset re-targets the frontier at a new training distribution and
// attack set, reusing the scratch buffers of previous builds
// (amortized-zero allocation across many Resets).
func (f *Frontier) Reset(train *Empirical, attack []float64) error {
	if train == nil || len(train.sorted) == 0 {
		return ErrNoSamples
	}
	var bases ladderBases
	for q, p := range frontierQuantiles {
		bases[q] = train.MustQuantile(p)
	}
	f.setAttack(attack, &bases)
	// Run-length-compress the sorted column into (uniq, pcdf).
	sorted := train.sorted
	n := len(sorted)
	nF := float64(n)
	f.uniq = f.uniq[:0]
	f.pcdf = append(f.pcdf[:0], 0)
	for idx := 0; idx < n; {
		v := sorted[idx]
		for idx < n && sorted[idx] == v {
			idx++
		}
		f.uniq = append(f.uniq, v)
		f.pcdf = append(f.pcdf, float64(idx)/nF)
	}
	return nil
}

// ladderBases holds the training column's value at each coarse
// quantile of frontierQuantiles.
type ladderBases [len(frontierQuantiles)]float64

// ascendingFinite reports whether every attack magnitude is finite,
// not −0, and at least the one before it. An infinite magnitude is
// excluded because it can meet an infinite base or threshold and make
// a NaN, which neither the merge nor the sweep's prefix can order.
func ascendingFinite(attack []float64) bool {
	for k, b := range attack {
		if math.IsInf(b, 0) || math.IsNaN(b) || b == 0 && math.Signbit(b) || k > 0 && b < attack[k-1] {
			return false
		}
	}
	return true
}

// setAttack targets the frontier at an attack set and fills f.shifted
// with every base shifted by every magnitude, ascending: bit-identical
// to appending the sums row by row and running sort.Float64s over
// them. With an ordered attack and no NaN base each row bases[q]+attack
// is ascending (float addition is monotone) and no sum is NaN or −0,
// so equal sums have equal bits and merging the rows yields the sort's
// output exactly; otherwise the ladder is sorted.
func (f *Frontier) setAttack(attack []float64, bases *ladderBases) {
	f.attack, f.ordered = attack, ascendingFinite(attack)
	f.shifted = f.shifted[:0]
	merge := f.ordered && len(attack) > 0
	for _, base := range bases {
		merge = merge && !math.IsNaN(base)
	}
	if !merge {
		for _, base := range bases {
			for _, b := range attack {
				f.shifted = append(f.shifted, base+b)
			}
		}
		sort.Float64s(f.shifted)
		return
	}
	// head[q] is row q's smallest unmerged sum, base[q]+attack[next[q]-1];
	// an exhausted row is swapped out of the first rows slots.
	base := *bases
	var head ladderBases
	var next [len(frontierQuantiles)]int
	for q := range head {
		head[q], next[q] = base[q]+attack[0], 1
	}
	for rows := len(head); rows > 0; {
		m := 0
		for q := 1; q < rows; q++ {
			if head[q] < head[m] {
				m = q
			}
		}
		f.shifted = append(f.shifted, head[m])
		if next[m] < len(attack) {
			head[m] = base[m] + attack[next[m]]
			next[m]++
			continue
		}
		rows--
		head[m], base[m], next[m] = head[rows], base[rows], next[rows]
	}
}

// Visit sweeps the frontier, calling visit for every candidate
// threshold in strictly ascending order with its exact (fp, fn)
// operating point. The arithmetic reproduces the brute-force scan
// bit for bit: fp = 1 - |{g <= T}|/n, fn = (Σ_b |{g <= T-b}|/n)/|b|
// with the per-magnitude terms accumulated in attack order. Along the
// sweep fp never increases and is never negative, and fn never
// decreases: every count is monotone in T and float rounding is
// monotone.
func (f *Frontier) Visit(visit func(t, fp, fn float64)) {
	f.sweep(func(t, fp, fn float64) bool {
		visit(t, fp, fn)
		return true
	})
}

// sweep is Visit that stops as soon as visit returns false.
func (f *Frontier) sweep(visit func(t, fp, fn float64) bool) {
	uniq, shifted, attack, pcdf := f.uniq, f.shifted, f.attack, f.pcdf
	nU := len(uniq)
	nMag := float64(len(attack))
	// The per-magnitude cursors live on this call's stack (heap only
	// for outlandish magnitude counts), so concurrent sweeps of one
	// shared frontier never touch common mutable state.
	var cursorBuf [64]int
	cursors := cursorBuf[:0]
	if len(attack) <= len(cursorBuf) {
		cursors = cursorBuf[:len(attack)]
	} else {
		cursors = make([]int, len(attack))
	}
	// live is the prefix of magnitudes whose cursor may have moved. With
	// an ordered attack, t-b falls as b rises and rises with t, so the
	// magnitudes with uniq[0] <= t-b are a prefix that only grows; the
	// rest keep cursor 0 and would add pcdf[0] = +0, which leaves fn's
	// bits alone. Any other attack sums every magnitude.
	live := len(attack)
	if f.ordered {
		live = 0
	}
	i, j := 0, 0
	for i < nU || j < len(shifted) {
		var t float64
		if j >= len(shifted) || (i < nU && uniq[i] <= shifted[j]) {
			t = uniq[i]
		} else {
			t = shifted[j]
		}
		// Consume t from both streams; afterwards pcdf[i] is exactly
		// the |{g <= t}|/n value Empirical.CDF's binary search would
		// return.
		if i < nU && uniq[i] == t {
			i++
		}
		for j < len(shifted) && shifted[j] == t {
			j++
		}
		fp := 1 - pcdf[i]
		for live < len(attack) && uniq[0] <= t-attack[live] {
			live++
		}
		var fn float64
		for k, b := range attack[:live] {
			x := t - b
			c := cursors[k]
			for c < nU && uniq[c] <= x {
				c++
			}
			cursors[k] = c
			fn += pcdf[c]
		}
		if len(attack) > 0 {
			fn /= nMag
		}
		if !visit(t, fp, fn) {
			return
		}
	}
}

// Maximize returns the candidate threshold maximizing score(fp, fn).
// Ties (scores within 1e-15) prefer the smallest threshold — the more
// sensitive detector — matching the brute-force scan's rule exactly.
//
// bound, when not nil, is an upper bound on the score of every
// candidate from the current one on, given the current fn: because fn
// never decreases along the sweep and fp is never negative, a score
// that cannot rise with fn or fall below it with fp admits one. The
// sweep stops once bound(fn) <= best + 1e-15, where no later candidate
// can pass the tie rule, so the result is exactly the full sweep's.
func (f *Frontier) Maximize(score func(fp, fn float64) float64, bound func(fn float64) float64) float64 {
	bestT, bestScore := 0.0, -1.0
	first := true
	f.sweep(func(t, fp, fn float64) bool {
		if first {
			bestT, first = t, false
		}
		if s := score(fp, fn); s > bestScore+1e-15 {
			bestT, bestScore = t, s
		}
		return bound == nil || bound(fn) > bestScore+1e-15
	})
	return bestT
}

// frontierPool recycles Frontier scratch buffers across the many
// short-lived builds the frontier-scoring heuristics perform, one per
// singleton group.
var frontierPool = sync.Pool{New: func() any { return new(Frontier) }}

// AcquireFrontier returns a pooled frontier reset to the given
// inputs. Callers must Release it when done and must not retain it
// afterwards.
func AcquireFrontier(train *Empirical, attack []float64) (*Frontier, error) {
	f := frontierPool.Get().(*Frontier)
	if err := f.Reset(train, attack); err != nil {
		frontierPool.Put(f)
		return nil, err
	}
	return f, nil
}

// Release drops the frontier's reference to the shared attack slice
// and returns it (scratch buffers intact) to the pool.
func (f *Frontier) Release() {
	f.attack = nil
	frontierPool.Put(f)
}

// CountAboveSorted returns |{v in sorted : v > x}| — the number of
// alarming windows of a threshold detector with threshold x — by
// binary search over an already-sorted slice.
func CountAboveSorted(sorted []float64, x float64) int {
	idx := sort.Search(len(sorted), func(i int) bool { return sorted[i] > x })
	return len(sorted) - idx
}
