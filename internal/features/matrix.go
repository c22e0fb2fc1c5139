package features

import (
	"fmt"
	"time"

	"repro/internal/stats"
)

// Matrix is one user's binned feature time series: row b holds the
// six feature values of window b in canonical feature order.
type Matrix struct {
	// BinWidth is the aggregation window.
	BinWidth time.Duration
	// StartMicros is the Unix-microsecond time of bin 0's left edge.
	StartMicros int64
	// Rows holds one row per window.
	Rows [][NumFeatures]float64
}

// NewMatrix allocates an all-zero matrix with the given geometry.
func NewMatrix(binWidth time.Duration, startMicros int64, bins int) *Matrix {
	return &Matrix{
		BinWidth:    binWidth,
		StartMicros: startMicros,
		Rows:        make([][NumFeatures]float64, bins),
	}
}

// FromCounts builds a matrix by sampling fn for every bin; fn must be
// pure in the bin index. This is the bridge from the trace
// generator's fast path into the analysis pipeline.
func FromCounts(binWidth time.Duration, startMicros int64, bins int, fn func(bin int) Counts) *Matrix {
	m := NewMatrix(binWidth, startMicros, bins)
	for b := range m.Rows {
		m.Rows[b] = fn(b).AsVector()
	}
	return m
}

// Bins returns the number of windows.
func (m *Matrix) Bins() int { return len(m.Rows) }

// ColumnSlice returns a copy of one feature's series over bins
// [lo, hi). It panics if the range is out of bounds.
func (m *Matrix) ColumnSlice(f Feature, lo, hi int) []float64 {
	if lo < 0 || hi > len(m.Rows) || lo > hi {
		panic(fmt.Sprintf("features: ColumnSlice range [%d, %d) outside [0, %d)", lo, hi, len(m.Rows)))
	}
	out := make([]float64, hi-lo)
	for b := lo; b < hi; b++ {
		out[b-lo] = m.Rows[b][f]
	}
	return out
}

// ColumnInto copies one feature's series over bins [lo, hi) into dst,
// which must have length hi-lo — the allocation-free counterpart of
// ColumnSlice used by the columnar workspace's slab-backed extraction.
func (m *Matrix) ColumnInto(dst []float64, f Feature, lo, hi int) {
	if lo < 0 || hi > len(m.Rows) || lo > hi {
		panic(fmt.Sprintf("features: ColumnInto range [%d, %d) outside [0, %d)", lo, hi, len(m.Rows)))
	}
	if len(dst) != hi-lo {
		panic(fmt.Sprintf("features: ColumnInto dst len %d != %d", len(dst), hi-lo))
	}
	for b := lo; b < hi; b++ {
		dst[b-lo] = m.Rows[b][f]
	}
}

// Distribution builds the empirical distribution of one feature over
// bins [lo, hi) — the per-user P(g_i^j) of the paper.
func (m *Matrix) Distribution(f Feature, lo, hi int) (*stats.Empirical, error) {
	return stats.NewEmpirical(m.ColumnSlice(f, lo, hi))
}

// BinsPerWeek returns the number of windows per week for this
// matrix's bin width.
func (m *Matrix) BinsPerWeek() int {
	return int((7 * 24 * time.Hour) / m.BinWidth)
}

// Weeks returns the number of complete weeks covered.
func (m *Matrix) Weeks() int { return len(m.Rows) / m.BinsPerWeek() }

// WeekRange returns the half-open bin range [lo, hi) of week w. It
// panics if the matrix does not contain week w in full.
func (m *Matrix) WeekRange(w int) (lo, hi int) {
	bw := m.BinsPerWeek()
	lo, hi = w*bw, (w+1)*bw
	if w < 0 || hi > len(m.Rows) {
		panic(fmt.Sprintf("features: week %d outside matrix with %d complete weeks", w, m.Weeks()))
	}
	return lo, hi
}
