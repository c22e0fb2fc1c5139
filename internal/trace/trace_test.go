package trace

import (
	"math"
	"testing"
	"time"

	"repro/internal/features"
	"repro/internal/stats"
)

func smallConfig() Config {
	return Config{Users: 40, Weeks: 2, Seed: 7}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Users: 0, Weeks: 1},
		{Users: 1, Weeks: 0},
		{Users: 1, Weeks: 1, BinWidth: time.Millisecond},
		{Users: 1, Weeks: 1, BinWidth: 11 * time.Minute}, // does not divide a week
		// Divides a week (9 bins) but not a day: the old
		// week-divisibility check accepted this, and downstream day
		// views truncated 9/7 to 1 bin per day, silently covering 7 of
		// the week's 9 bins.
		{Users: 1, Weeks: 1, BinWidth: 1120 * time.Minute},
		{Users: 1, Weeks: 1, HeavyFraction: 1.5},
	}
	for i, c := range bad {
		if _, err := NewPopulation(c); err == nil {
			t.Errorf("config %d accepted: %+v", i, c)
		}
	}
	if _, err := (Config{Users: 1, Weeks: 1, BinWidth: 1120 * time.Minute}).Normalized(); err == nil {
		t.Error("Normalized accepted a bin width that divides a week but not a day")
	}
}

func TestConfigDefaults(t *testing.T) {
	p := MustPopulation(Config{Users: 2, Weeks: 1})
	if p.Cfg.BinWidth != 15*time.Minute {
		t.Fatalf("default bin width %v", p.Cfg.BinWidth)
	}
	if p.Cfg.StartMicros != DefaultStartMicros {
		t.Fatalf("default start %d", p.Cfg.StartMicros)
	}
	if p.Cfg.BinsPerWeek() != 672 {
		t.Fatalf("BinsPerWeek = %d", p.Cfg.BinsPerWeek())
	}
	if p.Cfg.TotalBins() != 672 {
		t.Fatalf("TotalBins = %d", p.Cfg.TotalBins())
	}
}

func TestPopulationDeterminism(t *testing.T) {
	a := MustPopulation(smallConfig())
	b := MustPopulation(smallConfig())
	for i := range a.Users {
		ua, ub := a.Users[i], b.Users[i]
		if ua.Size != ub.Size || ua.Heavy != ub.Heavy || ua.Addr != ub.Addr {
			t.Fatalf("user %d profiles differ", i)
		}
		for _, bin := range []int{0, 100, 671, 1000} {
			if ua.BinCounts(bin) != ub.BinCounts(bin) {
				t.Fatalf("user %d bin %d counts differ", i, bin)
			}
		}
	}
}

func TestBinCountsIdempotentAndOrderFree(t *testing.T) {
	p := MustPopulation(smallConfig())
	u := p.Users[3]
	c100 := u.BinCounts(100)
	_ = u.BinCounts(50) // interleave another bin
	if again := u.BinCounts(100); again != c100 {
		t.Fatalf("BinCounts(100) changed across calls: %+v vs %+v", c100, again)
	}
}

func TestDifferentSeedsDifferentTraffic(t *testing.T) {
	a := MustPopulation(Config{Users: 5, Weeks: 1, Seed: 1})
	b := MustPopulation(Config{Users: 5, Weeks: 1, Seed: 2})
	same := 0
	for bin := 400; bin < 440; bin++ {
		if a.Users[0].BinCounts(bin) == b.Users[0].BinCounts(bin) {
			same++
		}
	}
	if same == 40 {
		t.Fatal("different seeds produced identical traffic")
	}
}

func TestCountsInvariants(t *testing.T) {
	p := MustPopulation(smallConfig())
	for _, u := range p.Users[:10] {
		for bin := 0; bin < 300; bin++ {
			c := u.BinCounts(bin)
			if c.HTTP > c.TCP {
				t.Fatalf("user %d bin %d: HTTP %d > TCP %d", u.ID, bin, c.HTTP, c.TCP)
			}
			if c.TCPSYN < c.TCP {
				t.Fatalf("user %d bin %d: TCPSYN %d < TCP %d", u.ID, bin, c.TCPSYN, c.TCP)
			}
			maxDistinct := c.TCP + c.UDP
			if c.DNS > 0 {
				maxDistinct++
			}
			if c.Distinct > maxDistinct || (c.TCP+c.UDP+c.DNS > 0 && c.Distinct == 0) {
				t.Fatalf("user %d bin %d: Distinct %d inconsistent with %+v", u.ID, bin, c.Distinct, c)
			}
			if c.DNS < 0 || c.TCP < 0 || c.UDP < 0 {
				t.Fatalf("negative counts: %+v", c)
			}
		}
	}
}

func TestActivityCycle(t *testing.T) {
	p := MustPopulation(smallConfig())
	u := p.Users[0]
	binsPerDay := p.Cfg.BinsPerWeek() / 7
	// Monday 11:00 should be full activity; Monday 03:00 near zero;
	// Saturday 12:00 low.
	monday11 := 11 * binsPerDay / 24
	monday3 := 3 * binsPerDay / 24
	sat12 := 5*binsPerDay + 12*binsPerDay/24
	if u.Activity(monday11) != 1.0 {
		t.Fatalf("Mon 11:00 activity = %g", u.Activity(monday11))
	}
	if u.Activity(monday3) > 0.1 {
		t.Fatalf("Mon 03:00 activity = %g", u.Activity(monday3))
	}
	if u.Activity(sat12) > 0.3 {
		t.Fatalf("Sat 12:00 activity = %g", u.Activity(sat12))
	}
	// Cycle repeats weekly.
	if u.Activity(monday11) != u.Activity(monday11+p.Cfg.BinsPerWeek()) {
		t.Fatal("activity not week-periodic")
	}
}

func TestWorkHoursBusierThanNights(t *testing.T) {
	p := MustPopulation(smallConfig())
	u := p.Users[1]
	binsPerDay := p.Cfg.BinsPerWeek() / 7
	var work, night float64
	for day := 0; day < 5; day++ {
		for h := 9; h < 18; h++ {
			c := u.BinCounts(day*binsPerDay + h*binsPerDay/24)
			work += float64(c.TCP)
		}
		for h := 0; h < 6; h++ {
			c := u.BinCounts(day*binsPerDay + h*binsPerDay/24)
			night += float64(c.TCP)
		}
	}
	if work <= night {
		t.Fatalf("work-hours TCP %g not above night TCP %g", work, night)
	}
}

// TestTailDiversitySpread is the generator's core calibration check:
// per-user 99th-percentile thresholds must span multiple orders of
// magnitude for TCP (Fig 1a) and a visibly narrower range for DNS
// (Fig 1d).
func TestTailDiversitySpread(t *testing.T) {
	if testing.Short() {
		t.Skip("population sweep")
	}
	p := MustPopulation(Config{Users: 120, Weeks: 1, Seed: 11})
	var tcpThr, dnsThr []float64
	for _, u := range p.Users {
		m := u.Series()
		tcp, err := m.Distribution(features.TCP, 0, m.Bins())
		if err != nil {
			t.Fatal(err)
		}
		dns, err := m.Distribution(features.DNS, 0, m.Bins())
		if err != nil {
			t.Fatal(err)
		}
		tcpThr = append(tcpThr, tcp.MustQuantile(0.99))
		dnsThr = append(dnsThr, dns.MustQuantile(0.99))
	}
	spread := func(v []float64) float64 {
		e := stats.MustEmpirical(v)
		lo, hi := e.MustQuantile(0.02), e.MustQuantile(0.98)
		if lo < 1 {
			lo = 1
		}
		return math.Log10(hi / lo)
	}
	if s := spread(tcpThr); s < 2.0 {
		t.Errorf("TCP threshold spread = %.2f decades, want >= 2.0 (Fig 1a)", s)
	}
	if s := spread(dnsThr); s > 2.0 {
		t.Errorf("DNS threshold spread = %.2f decades, want < 2.0 (Fig 1d)", s)
	}
	// The full range (what the paper's axes show) spans further.
	full := stats.MustEmpirical(tcpThr)
	if r := math.Log10(full.Max() / math.Max(full.Min(), 1)); r < 2.5 {
		t.Errorf("TCP full threshold range = %.2f decades, want >= 2.5 (Fig 1a)", r)
	}
}

func TestHeavyUsersDominateTail(t *testing.T) {
	p := MustPopulation(Config{Users: 100, Weeks: 1, Seed: 3})
	var heavyMean, bodyMean float64
	var nHeavy, nBody int
	for _, u := range p.Users {
		tcp := u.tcpRate
		if u.Heavy {
			heavyMean += tcp
			nHeavy++
		} else {
			bodyMean += tcp
			nBody++
		}
	}
	if nHeavy == 0 || nBody == 0 {
		t.Skip("degenerate mixture draw")
	}
	heavyMean /= float64(nHeavy)
	bodyMean /= float64(nBody)
	if heavyMean < 5*bodyMean {
		t.Fatalf("heavy mean rate %g not well above body mean %g", heavyMean, bodyMean)
	}
	frac := float64(nHeavy) / float64(nHeavy+nBody)
	if frac < 0.05 || frac > 0.30 {
		t.Fatalf("heavy fraction = %g, want ~0.15", frac)
	}
}

func TestWeekDriftChangesWeeks(t *testing.T) {
	p := MustPopulation(Config{Users: 3, Weeks: 2, Seed: 9})
	u := p.Users[0]
	d1a, _, _ := u.weekDrift(0)
	d1b, _, _ := u.weekDrift(0)
	d2, _, _ := u.weekDrift(1)
	if d1a != d1b {
		t.Fatal("weekDrift not deterministic")
	}
	if d1a == d2 {
		t.Fatal("weekDrift identical across weeks")
	}
}

func TestWeekSlice(t *testing.T) {
	p := MustPopulation(smallConfig())
	u := p.Users[0]
	lo, hi := u.WeekSlice(1)
	if lo != 672 || hi != 1344 {
		t.Fatalf("WeekSlice(1) = [%d, %d)", lo, hi)
	}
	if u.Bins() != 1344 {
		t.Fatalf("Bins = %d", u.Bins())
	}
}

func TestSeriesMatchesBinCounts(t *testing.T) {
	p := MustPopulation(Config{Users: 2, Weeks: 1, Seed: 13})
	u := p.Users[1]
	m := u.Series()
	if m.Bins() != u.Bins() {
		t.Fatalf("series bins %d != %d", m.Bins(), u.Bins())
	}
	for _, bin := range []int{0, 33, 200, 671} {
		if m.Rows[bin] != u.BinCounts(bin).AsVector() {
			t.Fatalf("series row %d mismatch", bin)
		}
	}
}

func TestBinStartMicros(t *testing.T) {
	p := MustPopulation(smallConfig())
	u := p.Users[0]
	if u.BinStartMicros(0) != DefaultStartMicros {
		t.Fatal("bin 0 start wrong")
	}
	if got := u.BinStartMicros(4) - u.BinStartMicros(3); got != (15 * time.Minute).Microseconds() {
		t.Fatalf("bin stride = %d", got)
	}
}

func TestCountDistinct(t *testing.T) {
	cases := []struct {
		in   []int
		want int
	}{
		{nil, 0},
		{[]int{5}, 1},
		{[]int{1, 1, 1}, 1},
		{[]int{1, 2, 3}, 3},
		{[]int{1, 2, 1, 3, 2}, 3},
	}
	for _, c := range cases {
		if got := countDistinct(c.in); got != c.want {
			t.Errorf("countDistinct(%v) = %d, want %d", c.in, got, c.want)
		}
	}
	// large input exercising the map path
	big := make([]int, 100)
	for i := range big {
		big[i] = i % 17
	}
	if got := countDistinct(big); got != 17 {
		t.Errorf("countDistinct(big) = %d, want 17", got)
	}
}

func BenchmarkBinCounts(b *testing.B) {
	p := MustPopulation(Config{Users: 1, Weeks: 1, Seed: 1})
	u := p.Users[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = u.BinCounts(i % u.Bins())
	}
}

func BenchmarkSeriesOneUserWeek(b *testing.B) {
	p := MustPopulation(Config{Users: 1, Weeks: 1, Seed: 1})
	u := p.Users[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = u.Series()
	}
}
