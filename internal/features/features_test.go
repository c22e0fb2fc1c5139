package features

import (
	"testing"
	"time"
)

func TestFeatureValidAndString(t *testing.T) {
	if Feature(-1).Valid() || Feature(6).Valid() {
		t.Fatal("out-of-range feature claimed valid")
	}
	if Feature(99).String() != "feature(99)" {
		t.Fatalf("invalid String = %q", Feature(99).String())
	}
	if len(All()) != NumFeatures {
		t.Fatalf("All() has %d features", len(All()))
	}
}

func TestCountsVectorAndGet(t *testing.T) {
	c := Counts{DNS: 1, TCP: 2, TCPSYN: 3, HTTP: 4, Distinct: 5, UDP: 6}
	if v := c.AsVector(); v != [NumFeatures]float64{1, 2, 3, 4, 5, 6} {
		t.Fatalf("AsVector = %v, want canonical feature order", v)
	}
}

func testMatrix() *Matrix {
	m := NewMatrix(15*time.Minute, 0, 2*672) // two weeks of 15-min bins
	for b := range m.Rows {
		m.Rows[b] = Counts{TCP: b % 7, UDP: b % 3, DNS: 1}.AsVector()
	}
	return m
}

func TestMatrixGeometry(t *testing.T) {
	m := testMatrix()
	if m.Bins() != 1344 {
		t.Fatalf("Bins = %d", m.Bins())
	}
	if m.BinsPerWeek() != 672 {
		t.Fatalf("BinsPerWeek = %d", m.BinsPerWeek())
	}
	if m.Weeks() != 2 {
		t.Fatalf("Weeks = %d", m.Weeks())
	}
	lo, hi := m.WeekRange(1)
	if lo != 672 || hi != 1344 {
		t.Fatalf("WeekRange(1) = [%d, %d)", lo, hi)
	}
}

func TestMatrixWeekRangePanics(t *testing.T) {
	m := testMatrix()
	defer func() {
		if recover() == nil {
			t.Fatal("WeekRange(2) did not panic on 2-week matrix")
		}
	}()
	m.WeekRange(2)
}

func TestMatrixColumnSlice(t *testing.T) {
	m := testMatrix()
	s := m.ColumnSlice(UDP, 10, 20)
	if len(s) != 10 {
		t.Fatalf("slice length %d", len(s))
	}
	for i, v := range s {
		if v != float64((10+i)%3) {
			t.Fatalf("slice[%d] = %g", i, v)
		}
	}
}

func TestMatrixColumnPanics(t *testing.T) {
	m := testMatrix()
	for name, fn := range map[string]func(){
		"bad range":     func() { m.ColumnSlice(TCP, 5, 2) },
		"out of bounds": func() { m.ColumnSlice(TCP, 0, m.Bins()+1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestMatrixDistribution(t *testing.T) {
	m := testMatrix()
	d, err := m.Distribution(DNS, 0, m.Bins())
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != m.Bins() || d.Min() != 1 || d.Max() != 1 {
		t.Fatalf("distribution: n=%d min=%g max=%g", d.N(), d.Min(), d.Max())
	}
}

func TestMatrixFromCounts(t *testing.T) {
	m := FromCounts(5*time.Minute, 100, 10, func(bin int) Counts {
		return Counts{TCP: bin}
	})
	if m.Bins() != 10 || m.BinWidth != 5*time.Minute || m.StartMicros != 100 {
		t.Fatalf("geometry: %+v", m)
	}
	if m.Rows[7][TCP] != 7 {
		t.Fatalf("row 7 = %v", m.Rows[7])
	}
}

// Clone returns a deep copy. No command copies a matrix; the test
// keeps it to pin that a Matrix's rows are its own storage.
func (m *Matrix) Clone() *Matrix {
	cp := &Matrix{BinWidth: m.BinWidth, StartMicros: m.StartMicros,
		Rows: make([][NumFeatures]float64, len(m.Rows))}
	copy(cp.Rows, m.Rows)
	return cp
}

func TestMatrixAddRowAndClone(t *testing.T) {
	m := NewMatrix(15*time.Minute, 0, 3)
	cp := m.Clone()
	m.Rows[1][TCP] += 5
	if cp.Rows[1][TCP] != 0 {
		t.Fatal("Clone shares storage with original")
	}
}
