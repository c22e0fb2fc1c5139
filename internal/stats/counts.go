package stats

import (
	"math"
	"sort"

	"repro/internal/pool"
)

// countHists recycles SortCounts' histograms; they come back dirty
// and SortCounts clears the prefix it uses.
var countHists pool.Slices[int32]

// SortCounts sorts s in increasing order, bit for bit as sort.Float64s
// does. Feature windows are event counts, so a column is almost always
// made of non-negative integers below a small multiple of its length;
// such a column is counting-sorted in linear time. Any other column —
// one holding a NaN, −0, a negative or fractional value, ±Inf or a
// count of 4·len(s) or more — goes to sort.Float64s. On the counting
// path no value is NaN or −0, so values that compare equal have equal
// bits and the sorted output is unique: both sorts produce it.
func SortCounts(s []float64) {
	n := len(s)
	if n < 2 {
		return
	}
	if n > math.MaxInt32 {
		sort.Float64s(s)
		return
	}
	limit := float64(4 * n)
	top := 0
	for _, v := range s {
		// !(v < limit) rejects NaN, +Inf and large counts, the sign
		// bit −0 and negatives, the round trip fractions.
		if !(v < limit) || math.Signbit(v) || float64(int(v)) != v {
			sort.Float64s(s)
			return
		}
		top = max(top, int(v))
	}
	hist := countHists.Get(top + 1)
	clear(hist)
	for _, v := range s {
		hist[int(v)]++
	}
	// Every count k ≤ top leaves room for top's own, so s[i] is in
	// range: an empty count's write is overwritten by the next value,
	// and the rarely taken loop is all that branches on the counts.
	i := 0
	for k, c := range hist {
		v := float64(k)
		s[i] = v
		for j := 1; j < int(c); j++ {
			s[i+j] = v
		}
		i += int(c)
	}
	countHists.Put(hist)
}
