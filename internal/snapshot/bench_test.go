package snapshot

import (
	"testing"
	"time"

	"repro/internal/xrand"
)

// BenchmarkOpen1000 times Open — the header checks and the payload
// checksum — on a sealed 1000-user × 2-week store at 15-minute bins,
// the population hidsbench's workloads map (≈194 MB). The store is
// written once, a record at a time, outside the timed region.
func BenchmarkOpen1000(b *testing.B) {
	dir := b.TempDir()
	key := testKey(1000, 2, 15*time.Minute)
	w, err := Create(dir, key)
	if err != nil {
		b.Fatal(err)
	}
	rec := make([]float64, w.Layout().RecordFloats())
	r := xrand.New(41)
	for u := 0; u < key.Users; u++ {
		for i := range rec {
			rec[i] = float64(r.Intn(1 << 20))
		}
		if err := w.AppendUsers(rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(key.Layout().PayloadFloats()) * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir, key)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
