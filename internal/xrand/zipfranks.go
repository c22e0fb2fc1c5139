package xrand

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/pool"
)

// ZipfRanks is a precomputed rank-boundary view of a Zipf(n, s)
// distribution, built once per (n, s) and shared across any number of
// draws. It produces exactly the same variate stream as Zipf for the
// same Source — rank for rank, rejection for rejection — but resolves
// most draws with one cell-table load, and the rest with a short
// bracketed search over precomputed bucket edges, instead of the
// reference's per-uniform transcendentals (hIntegralInv is a Log1p
// plus an Exp per draw).
//
// Why this is safe: rejection inversion maps each uniform u to a rank
// k = floor(hIntegralInv(u)+0.5) and an accept/reject decision, both
// step functions of u alone. The steps sit at u = hIntegral of
// half-integer points, which the table computes once per rank. The
// table's bucket edges are the *ideal* step positions; the reference
// implementation computes the steps through a float pipeline whose
// placement can differ from the ideal by a few ULPs. Every edge
// therefore carries a guard band several orders of magnitude wider
// than that error: draws landing inside a band are classified by the
// retained reference arithmetic (zipfCore.step), draws outside are
// classified by the table. The acceptance bound (zipfBucket.c) is
// compared exactly as the reference computes it, so it needs no
// guard; the rare draws below it also go to the reference step.
// Fallbacks never change the result, only how it is computed. The
// boundary-agreement and stream-equivalence tests in
// zipfranks_test.go pin table and reference to each other.
//
// A ZipfRanks is immutable after construction and safe for concurrent
// use; each Next call draws from the caller's Source.
type ZipfRanks struct {
	zipfCore
	in    int     // n as an int
	delta float64 // hIntegralX1 - hIntegralN, the per-draw scale factor
	// deltaScaled = delta/2^53 (exact: a power-of-two scaling), so a
	// raw 53-bit word w maps to the uniform hIntegralN + w*deltaScaled
	// with the single rounding the reference's Float64()*delta takes.
	deltaScaled float64
	// cellScale maps a raw 53-bit word directly to its cell index
	// (one rounding instead of the two the u-route takes — a
	// difference of ULPs, orders of magnitude inside the certainty
	// margins), so the cell load does not wait for u.
	cellScale float64
	guard     float64 // half-width of the fallback band around each boundary

	// buckets[k-1] holds rank k's boundaries in one cache-friendly
	// record; buckets[n] is a sentinel whose lo is the top of the
	// draw range, so bucket k's interval is [buckets[k-1].lo,
	// buckets[k].lo).
	buckets []zipfBucket
	// fast[i] > 0 means every uniform whose cell index truncates to i
	// certainly classifies as rank fast[i], accepted — one load
	// resolves the draw. fast[i] < 0 means cell i is not pre-decided
	// and -fast[i] is the rank bucket containing the cell's start
	// point u(i/cells); together with the next entry it brackets the
	// bucket search, so no separate boundary-bucket array is needed.
	// |fast[i]| is always that boundary bucket. The last entry is the
	// bottom-of-range sentinel. int16 keeps the draw path's footprint
	// small: the heaviest supports' tables must stay cache-resident
	// under a draw loop. len cells+1, |values| non-increasing.
	fast      []int16
	invDeltaG float64 // cells/delta: maps u back to a grid cell
}

// zipfBucket holds one rank's precomputed boundaries in one
// 16-byte record — the draw path's footprint on the heaviest
// supports is what bounds its speed.
type zipfBucket struct {
	// lo = hIntegral(k-0.5): the ideal lower u-edge of bucket k
	// (-Inf for k=1, whose bucket extends to the bottom of the draw
	// range).
	lo float64
	// c = hIntegral(k+0.5) - h(k): the slow-path acceptance bound,
	// computed with the identical float expression the reference
	// uses, so comparisons against it are exact. Any uniform at or
	// above c accepts outright (the reference's second test), no
	// matter how its quick-accept test falls; uniforms below c —
	// the would-be rejects plus a sliver whose quick-accept test
	// still passes, a fraction of a percent together — go to the
	// reference step.
	c float64
}

// maxZipfRanks bounds the support so ranks fit the int16 cell
// encoding (and the bucket/cell tables stay cache-sized). Larger
// supports should use Zipf directly.
const maxZipfRanks = 1<<15 - 1

// fastCells returns the cell-table resolution for a support of n.
func fastCells(n int) int {
	cells := 8 * n
	if cells > 1<<18 {
		cells = 1 << 18
	}
	return cells
}

func checkZipfRanksArgs(n int, s float64) {
	if n < 1 || s <= 0 {
		panic(fmt.Sprintf("xrand: ZipfRanks requires n >= 1 and s > 0, got n=%d s=%g", n, s))
	}
	if n > maxZipfRanks {
		panic(fmt.Sprintf("xrand: ZipfRanks supports n <= %d, got %d (use NewZipf)", maxZipfRanks, n))
	}
}

// Process-wide size-bucketed free lists for the two construction
// tables (the alloc tail of per-user generator setup). Construction
// fully overwrites every entry it later reads — the bucket sentinel's
// c field is the only never-written slot, and it is also never read —
// so dirty pooled storage is safe; the table equivalence tests pin
// pooled and fresh construction identical.
var (
	bucketPool    pool.Slices[zipfBucket]
	fastCellPool  pool.Slices[int16]
	zipfRanksPool = sync.Pool{New: func() any { return new(ZipfRanks) }}
)

// NewZipfRanksPooled builds the rank table for Zipf(n, s), with the
// struct and both tables drawn from process-wide size-bucketed pools:
// the table is identical entry for entry to a freshly allocated one,
// but a sweep constructing one per user stops allocating once the
// pools warm. Pair with Release; a pooled table left unreleased is
// merely garbage, never corrupt.
func NewZipfRanksPooled(n int, s float64) *ZipfRanks {
	checkZipfRanksArgs(n, s)
	z := zipfRanksPool.Get().(*ZipfRanks)
	z.build(n, s, bucketPool.Get(n+1), fastCellPool.Get(fastCells(n)+1))
	return z
}

// Release returns the table's storage to the construction pools. The
// table (and any variate stream drawing from it) must not be used
// afterwards. Safe on tables from either constructor: non-pooled
// storage simply misses the pools' capacity classes and is dropped.
func (z *ZipfRanks) Release() {
	if z == nil {
		return
	}
	bucketPool.Put(z.buckets)
	fastCellPool.Put(z.fast)
	z.buckets, z.fast = nil, nil
	zipfRanksPool.Put(z)
}

// build constructs the table in place into possibly dirty storage
// (len(buckets) == n+1, len(fast) == fastCells(n)+1): every field of
// z and every read entry of both tables is overwritten.
func (z *ZipfRanks) build(n int, s float64, buckets []zipfBucket, fast []int16) {
	z.zipfCore = newZipfCore(n, s)
	z.in = n
	z.delta = z.hIntegralX1 - z.hIntegralN
	z.deltaScaled = z.delta / (1 << 53)
	z.guard = 1e-11 * (1 + math.Abs(z.hIntegralX1) + math.Abs(z.hIntegralN))

	z.buckets = buckets
	z.buckets[0].lo = math.Inf(-1)
	for k := 1; k <= n; k++ {
		fk := float64(k)
		// hIntegral(k+0.5) is both the acceptance bound's first term
		// and the next bucket's lower edge; evaluate it once.
		hi := z.hIntegral(fk + 0.5)
		z.buckets[k-1].c = hi - z.h(fk)
		if k < n {
			z.buckets[k].lo = hi
		}
	}
	// Sentinel above the whole draw range (u never exceeds
	// hIntegralN, which is > hIntegralX1 for every valid s).
	top := z.hIntegralN
	if z.hIntegralX1 > top {
		top = z.hIntegralX1
	}
	z.buckets[n].lo = top + 1

	cells := fastCells(n)
	// First pass: store the rank bucket at every cell boundary,
	// negated (the "not pre-decided" encoding).
	z.fast = fast
	k := n
	for i := 0; i <= cells; i++ {
		u := z.hIntegralN + (float64(i)/float64(cells))*z.delta
		for k > 1 && z.buckets[k-1].lo > u {
			k--
		}
		z.fast[i] = int16(-k)
	}
	z.invDeltaG = float64(cells) / z.delta
	z.cellScale = z.deltaScaled * z.invDeltaG

	// Second pass — cell-level certainty: a draw whose computed index
	// truncates to cell i has its uniform in [u(i+1), u(i)] give or
	// take the rounding of the index product, which is ULP-scale —
	// far inside one guard width. If that interval, widened by a
	// guard on each side, sits strictly inside one bucket — clear of
	// the bucket's edge guard bands — and entirely at or above the
	// bucket's exact acceptance bound, the draw's outcome is already
	// decided and the cell entry flips positive. The flip preserves
	// |fast[i]|, so later cells still read their start bucket from an
	// already-flipped neighbor.
	for i := 0; i < cells; i++ {
		// u decreases with the cell index.
		a := z.hIntegralN + (float64(i+1)/float64(cells))*z.delta - z.guard
		b := z.hIntegralN + (float64(i)/float64(cells))*z.delta + z.guard
		k := int(z.fast[i+1])
		if k < 0 {
			k = -k
		}
		ki := int(z.fast[i])
		if ki < 0 {
			ki = -ki
		}
		if ki != k {
			continue // cell crosses a bucket edge: search path
		}
		bk := &z.buckets[k-1]
		if !(a-bk.lo > z.guard && z.buckets[k].lo-b > z.guard) {
			continue
		}
		if a >= bk.c {
			z.fast[i] = int16(k) // whole cell accepts
		}
	}
}

// Next returns the next Zipf variate in [1, n], drawing uniforms from
// src. For a given Source state the returned value — and the number
// of uniforms consumed — is identical to Zipf.Next.
func (z *ZipfRanks) Next(src *Source) int {
	// The last real cell is len-2: the final entry is the
	// bottom-of-range sentinel every cell reads as its far bracket
	// (cells >= 8 for every valid n, so the range is never empty).
	last := len(z.fast) - 2
	for {
		w := float64(src.Uint64() >> 11)
		u := z.hIntegralN + w*z.deltaScaled
		i := int(w * z.cellScale)
		if i < 0 {
			i = 0
		} else if i > last {
			i = last
		}
		if v := z.fast[i]; v > 0 {
			return int(v)
		}
		if k, ok := z.classifySlow(u, i); ok {
			return k
		}
	}
}

// accept decides a certain-rank draw against rank k's acceptance
// bound: at or above c the reference accepts through its second test
// regardless of the quick-accept outcome (the comparison is exact);
// below c only the quick-accept test can still save the draw, so the
// reference step decides.
func (z *ZipfRanks) accept(u float64, k int) (int, bool) {
	if u >= z.buckets[k-1].c {
		return k, true
	}
	return z.step(u)
}

// classifySlow is the boundary-exact path for draws near a boundary
// (or tiny supports), delegating to the reference step inside guard
// bands.
func (z *ZipfRanks) classifySlow(u float64, i int) (int, bool) {
	k := 1
	if z.in > 1 {
		// The cell's boundary buckets bracket the search range. The
		// truncation of u back to a cell index can be off by one near
		// cell boundaries, so widen by one bucket on each side and
		// verify; fall back to a full search if the bracket was wrong
		// (reachable only at cell edges, harmless).
		hi := int(z.fast[i])
		if hi < 0 {
			hi = -hi
		}
		lo := int(z.fast[i+1])
		if lo < 0 {
			lo = -lo
		}
		lo = max(lo-1, 1)
		hi = min(hi+1, z.in)
		if hi-lo <= 8 {
			// The bracket's records are adjacent 16-byte entries —
			// a couple of cache lines — so a linear scan beats the
			// binary search's dependent loads.
			k = lo
			for k < hi && z.buckets[k].lo <= u {
				k++
			}
		} else {
			k = z.search(u, lo, hi)
		}
		if !(z.buckets[k-1].lo <= u && u < z.buckets[k].lo) {
			k = z.search(u, 1, z.in)
		}
		// Guard bands around the bucket edges.
		if u-z.buckets[k-1].lo < z.guard || z.buckets[k].lo-u < z.guard {
			return z.step(u)
		}
	}
	return z.accept(u, k)
}

// search returns the bucket in [lo, hi] containing u: the last bucket
// whose lower edge is at most u.
func (z *ZipfRanks) search(u float64, lo, hi int) int {
	for lo < hi {
		m := int(uint(lo+hi+1) >> 1)
		if z.buckets[m-1].lo <= u {
			lo = m
		} else {
			hi = m - 1
		}
	}
	return lo
}

// SampleDistinct draws n variates — consuming uniforms and producing
// ranks exactly as n calls to Next would — and marks each drawn rank
// in marks (marks[k-1] = epoch), returning how many ranks were newly
// marked this epoch. marks must have at least N() entries. This bulk
// form exists for the trace generator's counts path: one call per
// aggregation window keeps the draw loop, the rank table and the mark
// table in a single frame, with no per-draw call overhead.
func (z *ZipfRanks) SampleDistinct(src *Source, n int, marks []uint16, epoch uint16) int {
	distinct := 0
	last := len(z.fast) - 2
	for ; n > 0; n-- {
		k := 0
		for k == 0 {
			w := float64(src.Uint64() >> 11)
			u := z.hIntegralN + w*z.deltaScaled
			i := int(w * z.cellScale)
			if i < 0 {
				i = 0
			} else if i > last {
				i = last
			}
			if v := z.fast[i]; v > 0 {
				k = int(v)
				break
			}
			if kk, ok := z.classifySlow(u, i); ok {
				k = kk
			}
		}
		if marks[k-1] != epoch {
			marks[k-1] = epoch
			distinct++
		}
	}
	return distinct
}
