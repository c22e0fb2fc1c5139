package trace

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/features"
	"repro/internal/netsim"
	"repro/internal/xrand"
)

// refSeries is the retained per-bin reference path: one independent
// sample() per bin, exactly what Series did before the batch engine.
func refSeries(u *User) *features.Matrix {
	return features.FromCounts(u.cfg.BinWidth, u.cfg.StartMicros, u.Bins(), u.BinCounts)
}

// TestGenerateWeekMatchesReference is the batch engine's equivalence
// guard: across seeds and bin widths, GenerateWeek must reproduce the
// per-bin reference sampler bit for bit (same RNG streams, same
// arithmetic, cached week state notwithstanding).
func TestGenerateWeekMatchesReference(t *testing.T) {
	cfgs := []Config{
		{Users: 6, Weeks: 2, Seed: 7},
		{Users: 4, Weeks: 3, Seed: 53}, // seed 53 grows a heavy user at 1 user; keep variety
		{Users: 3, Weeks: 2, Seed: 11, BinWidth: 5 * time.Minute},
		{Users: 2, Weeks: 1, Seed: 2, BinWidth: time.Hour, WeeklyTrend: 1.0},
	}
	if !testing.Short() {
		// The paper-scale heavy tail: single users whose pools and
		// per-bin connection counts are orders of magnitude above the
		// body (seed 87 is the heaviest of the first hundred).
		cfgs = append(cfgs,
			Config{Users: 1, Weeks: 1, Seed: 87},
			Config{Users: 1, Weeks: 2, Seed: 53},
		)
	}
	for _, cfg := range cfgs {
		p := MustPopulation(cfg)
		for _, u := range p.Users {
			want := refSeries(u)
			got := u.Series()
			if !reflect.DeepEqual(got, want) {
				for b := range want.Rows {
					if got.Rows[b] != want.Rows[b] {
						t.Fatalf("seed %d user %d bin %d: batch %v != reference %v",
							cfg.Seed, u.ID, b, got.Rows[b], want.Rows[b])
					}
				}
				t.Fatalf("seed %d user %d: matrices diverge outside rows", cfg.Seed, u.ID)
			}
		}
	}
}

// TestGeneratorRandomAccessMatchesReference drives a single Generator
// across out-of-order bins spanning week boundaries: the cached week
// state must be recomputed transparently and every bin must still
// match the reference.
func TestGeneratorRandomAccessMatchesReference(t *testing.T) {
	p := MustPopulation(Config{Users: 2, Weeks: 3, Seed: 19})
	u := p.Users[1]
	g := u.NewGenerator()
	bins := []int{0, 700, 3, 1400, 671, 672, 2015, 1, 1343, 672, 0}
	for _, b := range bins {
		if got, want := g.BinCounts(b), u.BinCounts(b); got != want {
			t.Fatalf("bin %d: generator %+v != reference %+v", b, got, want)
		}
	}
}

// TestGeneratorEmitBinMatchesReference pins the batch packet path to
// the reference: same records, same order, bin by bin.
func TestGeneratorEmitBinMatchesReference(t *testing.T) {
	p := MustPopulation(Config{Users: 2, Weeks: 1, Seed: 13})
	for _, u := range p.Users {
		g := u.NewGenerator()
		for bin := 0; bin < 100; bin++ {
			var want, got []netsim.Record
			nw := u.EmitBin(bin, func(r netsim.Record) { want = append(want, r) })
			ng := g.EmitBin(bin, func(r netsim.Record) { got = append(got, r) })
			if nw != ng || !reflect.DeepEqual(got, want) {
				t.Fatalf("user %d bin %d: batch emit diverges from reference (%d vs %d records)",
					u.ID, bin, ng, nw)
			}
		}
	}
}

// TestGenerateWeekValidation covers the batch API's panics.
func TestGenerateWeekValidation(t *testing.T) {
	p := MustPopulation(Config{Users: 1, Weeks: 1, Seed: 1})
	g := p.Users[0].NewGenerator()
	for name, fn := range map[string]func(){
		"short-rows": func() { g.GenerateWeek(0, make([][features.NumFeatures]float64, 10)) },
		"bad-week":   func() { g.GenerateWeek(1, make([][features.NumFeatures]float64, 672)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// BenchmarkGenerateWeek measures the batch engine's unit of work: one
// user-week of all six features into preallocated rows, generator
// construction amortized.
func BenchmarkGenerateWeek(b *testing.B) {
	p := MustPopulation(Config{Users: 1, Weeks: 1, Seed: 1})
	u := p.Users[0]
	g := u.NewGenerator()
	rows := make([][features.NumFeatures]float64, p.Cfg.BinsPerWeek())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.GenerateWeek(0, rows)
	}
}

// BenchmarkGeneratorBinCounts is the batch counterpart of
// BenchmarkBinCounts (the reference per-bin path).
func BenchmarkGeneratorBinCounts(b *testing.B) {
	p := MustPopulation(Config{Users: 1, Weeks: 1, Seed: 1})
	u := p.Users[0]
	g := u.NewGenerator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.BinCounts(i % u.Bins())
	}
}

// TestAcquireGeneratorMatchesNewGenerator pins the pooled generator
// path (what FillSeries and WriteTrace actually run) to the plain
// constructor: across acquire/release cycles spanning users with
// different pool sizes — so each acquisition inherits another user's
// dirty seen marks and scratch tables — GenerateWeek and EmitBin must
// be bit-identical to a fresh Generator.
func TestAcquireGeneratorMatchesNewGenerator(t *testing.T) {
	p := MustPopulation(Config{Users: 5, Weeks: 2, Seed: 29})
	rows := make([][features.NumFeatures]float64, p.Cfg.BinsPerWeek())
	want := make([][features.NumFeatures]float64, p.Cfg.BinsPerWeek())
	for round := 0; round < 3; round++ {
		for _, u := range p.Users {
			fresh := u.NewGenerator()
			g := u.AcquireGenerator()
			for week := 0; week < p.Cfg.Weeks; week++ {
				fresh.GenerateWeek(week, want)
				g.GenerateWeek(week, rows)
				if !reflect.DeepEqual(rows, want) {
					t.Fatalf("round %d user %d week %d: pooled GenerateWeek diverges", round, u.ID, week)
				}
			}
			for _, bin := range []int{0, 1, 7, u.Bins() - 1} {
				var wantRecs, gotRecs []netsim.Record
				nw := fresh.EmitBin(bin, func(r netsim.Record) { wantRecs = append(wantRecs, r) })
				ng := g.EmitBin(bin, func(r netsim.Record) { gotRecs = append(gotRecs, r) })
				if nw != ng || !reflect.DeepEqual(gotRecs, wantRecs) {
					t.Fatalf("round %d user %d bin %d: pooled EmitBin diverges (%d vs %d records)",
						round, u.ID, bin, ng, nw)
				}
			}
			g.Release()
		}
	}
	// Release is nil-safe and safe on plain-constructed generators.
	var nilG *Generator
	nilG.Release()
	p.Users[0].NewGenerator().Release()
}

// BenchmarkAcquireGenerator measures one full pooled
// construct-generate-release cycle — the per-user unit of the
// materialization sweep. Contrast with BenchmarkGenerateWeek, which
// amortizes construction away entirely: the gap between them is the
// setup cost pooling has to pay per user, and the allocs/op column
// shows it paying (near) zero once the pools warm.
func BenchmarkAcquireGenerator(b *testing.B) {
	p := MustPopulation(Config{Users: 1, Weeks: 1, Seed: 1})
	u := p.Users[0]
	rows := make([][features.NumFeatures]float64, p.Cfg.BinsPerWeek())
	u.AcquireGenerator().Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := u.AcquireGenerator()
		g.GenerateWeek(0, rows)
		g.Release()
	}
}

// NewGenerator returns a batch sampling engine with freshly allocated
// scratch: the reference a recycled AcquireGenerator engine must match.
func (u *User) NewGenerator() *Generator {
	return &Generator{
		u:         u,
		zipf:      xrand.NewZipfRanksPooled(u.poolSize, u.zipfS),
		synRetryT: xrand.Threshold53(u.synRetryP),
		week:      -1,
		seen:      make([]uint16, u.poolSize),
	}
}

// BinCounts returns the six feature values of (user, bin), identical
// to User.BinCounts. Bins may be visited in any order; consecutive
// bins of one week reuse the cached week state.
func (g *Generator) BinCounts(bin int) features.Counts {
	return g.sampleInto(bin, false)
}

// BinCounts returns the six feature values for (user, bin). It is
// deterministic: calling it any number of times, in any order, gives
// the same values, and they agree exactly with what the packet
// pipeline extracts from EmitBin's output.
func (u *User) BinCounts(bin int) features.Counts {
	return u.sample(bin).counts
}
