// Package trace synthesizes the enterprise end-host packet traces the
// paper collected from 350 real users (5 weeks, Q1 2007). The real
// traces are proprietary, so this package is the substitution layer
// documented in DESIGN.md §2: a population model whose *cross-user
// tail diversity* matches the properties the paper measures.
//
// The model, per user and per 15-minute (or 5-minute) bin:
//
//   - A user "size" factor z_u drawn from a continuous right-skewed
//     distribution (normal body + exponential upper tail). This
//     produces the multi-decade spread with the top 10-15% of users
//     clearly heavier than the rest (Fig 1) while keeping the
//     population a continuum with no natural cluster boundaries,
//     matching the paper's failed k-means experiment (§5).
//   - Per-feature log-rates coupled to z_u with feature-specific
//     noise, so TCP-heavy users are not automatically UDP-heavy
//     (Fig 2's off-diagonal users). DNS couples weakly, compressing
//     its spread to ~2 decades as in Fig 1(d).
//   - A diurnal/weekly activity cycle with offline (laptop suspended)
//     bins and multiplicative lognormal per-bin noise.
//   - Habitual high-activity episode sessions (persistent weekly
//     slots, persistent per-user intensity style with small weekly
//     jitter) that create each user's own upper tail.
//   - Week-scale rate drift whose volatility grows with user size,
//     plus a mild population-wide weekly trend (Config.WeeklyTrend).
//     Together these reproduce the paper's observations that
//     thresholds learned in week n do not yield the nominal 1%
//     false-positive rate in week n+1, and that the monoculture
//     (homogeneous) policy delivers roughly twice the console
//     false-alarm volume of the diversity policies (Table 3).
//
// Every quantity is derived deterministically from (seed, user, bin),
// so the same Config regenerates the same enterprise bit-for-bit, and
// the packet-level materialization (EmitBin) realizes exactly the
// counts the fast path (Series) reports — the pipeline integration
// tests rely on this.
package trace

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/netsim"
	"repro/internal/xrand"
)

// DefaultStartMicros is Monday 2007-01-08 00:00:00 UTC, aligning the
// synthetic collection with the paper's Q1 2007 window and starting
// on a week boundary so week arithmetic is trivial.
const DefaultStartMicros = 1168214400000000

// Config parameterizes an enterprise population.
type Config struct {
	// Users is the number of end hosts (the paper has 350).
	Users int
	// Weeks is the number of full weeks of data (the paper has 5).
	Weeks int
	// BinWidth is the feature aggregation window; the paper uses 5
	// and 15 minutes and reports the 15-minute results.
	BinWidth time.Duration
	// Seed makes the whole population reproducible.
	Seed uint64
	// StartMicros is the capture start in Unix microseconds; it
	// should fall on a Monday midnight UTC. Zero means
	// DefaultStartMicros.
	StartMicros int64
	// HeavyFraction is the fraction of heavy users (default 0.15).
	HeavyFraction float64
	// WeeklyTrend is the population-wide multiplicative rate change
	// per week (default 0.92). The paper's out-of-sample false-alarm
	// volumes (Table 3) sit well below the nominal 1% for every
	// policy, which is only possible if the population's traffic was
	// not week-stationary during the capture; a mild decline
	// reproduces both the deflation and its asymmetry between
	// per-user and global thresholds. Set to 1.0 for a stationary
	// population.
	WeeklyTrend float64
}

func (c Config) withDefaults() (Config, error) {
	if c.Users <= 0 {
		return c, fmt.Errorf("trace: Config.Users must be positive, got %d", c.Users)
	}
	if c.Weeks <= 0 {
		return c, fmt.Errorf("trace: Config.Weeks must be positive, got %d", c.Weeks)
	}
	if c.BinWidth == 0 {
		c.BinWidth = 15 * time.Minute
	}
	if c.BinWidth < time.Minute || c.BinWidth > 24*time.Hour {
		return c, fmt.Errorf("trace: Config.BinWidth %v outside [1m, 24h]", c.BinWidth)
	}
	// A day, not merely a week: downstream day views split each week
	// into 7 equal windows, and a width like 1120m divides a week
	// (9 bins) but not a day, which would silently truncate the
	// per-day geometry. Day divisibility implies week divisibility.
	if (24*time.Hour)%c.BinWidth != 0 {
		return c, fmt.Errorf("trace: Config.BinWidth %v does not divide a day", c.BinWidth)
	}
	if c.StartMicros == 0 {
		c.StartMicros = DefaultStartMicros
	}
	if c.HeavyFraction == 0 {
		c.HeavyFraction = 0.15
	}
	if c.HeavyFraction < 0 || c.HeavyFraction > 1 {
		return c, fmt.Errorf("trace: Config.HeavyFraction %g outside [0, 1]", c.HeavyFraction)
	}
	if c.WeeklyTrend == 0 {
		c.WeeklyTrend = 0.80
	}
	if c.WeeklyTrend < 0.5 || c.WeeklyTrend > 1.5 {
		return c, fmt.Errorf("trace: Config.WeeklyTrend %g outside [0.5, 1.5]", c.WeeklyTrend)
	}
	return c, nil
}

// Normalized returns the config with every default applied — the
// exact parameter set generation runs under. The snapshot store keys
// workspaces by the normalized config, so a partially specified
// Config addresses the same snapshot as its fully defaulted form.
func (c Config) Normalized() (Config, error) { return c.withDefaults() }

// BinsPerWeek returns the number of aggregation windows in one week.
func (c Config) BinsPerWeek() int {
	return int((7 * 24 * time.Hour) / c.BinWidth)
}

// TotalBins returns the number of windows across the whole capture.
func (c Config) TotalBins() int { return c.BinsPerWeek() * c.Weeks }

// User is one synthetic end host. Its exported fields describe the
// latent profile; the sampling methods in sample.go and emit.go
// produce its observable traffic.
type User struct {
	// ID is the 0-based user index (Table 2 reports these).
	ID int
	// Addr is the host's enterprise address.
	Addr netsim.Addr
	// Heavy records whether the user came from the heavy mixture
	// component (useful for test assertions; policies never see it).
	Heavy bool
	// Size is the latent size factor z_u.
	Size float64

	cfg Config

	// Per-feature mean rates per fully active bin.
	tcpRate, udpRate, dnsRate float64
	// httpFrac is the fraction of TCP connections that go to port 80.
	httpFrac float64
	// synRetryP is the per-connection probability of each additional
	// SYN retransmission (geometric).
	synRetryP float64
	// Destination pool: conceptually poolSize distinct remote hosts
	// with Zipf(zipfS) popularity.
	poolSize int
	zipfS    float64
	// episodeRate is the mean number of high-activity episode
	// sessions per week.
	episodeRate float64
	// episodeBase is the user's persistent episode intensity style:
	// the median level multiplier of their sessions.
	episodeBase float64
	// episodeSlots are the user's habitual session times (bin offsets
	// within a week) and durations; weekly episodes recur at these
	// slots with jitter. Habit persistence is what keeps per-user
	// tails comparable across weeks.
	episodeSlots []episodeSlot
	// noiseSigma is the lognormal per-bin modulation.
	noiseSigma float64
}

// Population is the full synthetic enterprise.
type Population struct {
	Cfg   Config
	Users []*User
}

// NewPopulation generates a deterministic population from cfg.
func NewPopulation(cfg Config) (*Population, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	pop := &Population{Cfg: cfg, Users: make([]*User, cfg.Users)}
	root := xrand.New(cfg.Seed)
	for i := range pop.Users {
		pop.Users[i] = newUser(i, cfg, root.Fork())
	}
	return pop, nil
}

// MustPopulation is NewPopulation that panics on error; for tests.
func MustPopulation(cfg Config) *Population {
	p, err := NewPopulation(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

func newUser(id int, cfg Config, r *xrand.Source) *User {
	u := &User{
		ID:   id,
		Addr: netsim.AddrFrom4(10, byte(1+id/250), byte(id%250+1), 10),
		cfg:  cfg,
	}
	// Latent size: continuous right-skewed distribution (normal body
	// plus exponential upper tail). The paper found users "sweep
	// through the entire range of values" with no natural cluster
	// boundaries, so the population must be a continuum, not a
	// mixture; the top HeavyFraction are flagged Heavy.
	u.Size = r.Normal(0, 0.45) + r.Exponential(0.80)
	u.Heavy = u.Size > sizeCutoff(cfg.HeavyFraction)
	// Per-feature log-rates. The coupling coefficients are the knobs
	// that reproduce Fig 1's spreads; see package comment.
	u.tcpRate = math.Exp(2.2 + 1.35*u.Size + 0.50*r.NormFloat64())
	u.udpRate = math.Exp(1.9 + 1.15*u.Size + 1.05*r.NormFloat64())
	u.dnsRate = math.Exp(2.6 + 0.62*u.Size + 0.38*r.NormFloat64())
	u.httpFrac = sigmoid(0.2 + 0.8*r.NormFloat64())
	u.synRetryP = 0.02 + 0.06*r.Float64()
	pool := 30 + int(12*(u.tcpRate+u.udpRate))
	if pool > 30000 {
		pool = 30000
	}
	u.poolSize = pool
	u.zipfS = 1.05 + 0.25*r.Float64()
	u.episodeRate = 3.0 + 2.5*r.Float64()
	u.episodeBase = math.Exp(1.8 + 0.6*r.NormFloat64())
	nSlots := 8
	u.episodeSlots = make([]episodeSlot, nSlots)
	for i := range u.episodeSlots {
		u.episodeSlots[i] = episodeSlot{
			start: r.Intn(cfg.BinsPerWeek()),
			dur:   6 + r.Intn(6),
		}
	}
	u.noiseSigma = 0.25 + 0.15*r.Float64()

	// Rates are per fully-active 15-minute bin; rescale for other
	// bin widths so total volume is invariant.
	scale := cfg.BinWidth.Minutes() / 15
	u.tcpRate *= scale
	u.udpRate *= scale
	u.dnsRate *= scale
	return u
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// sizeCutoff returns the size value above which approximately frac of
// users fall, estimated once by Monte Carlo from a fixed stream (so
// it is a population-independent constant per frac).
func sizeCutoff(frac float64) float64 {
	cutoffOnce.Do(func() {
		r := xrand.New(0x5e1ec7)
		cutoffSamples = make([]float64, 20000)
		for i := range cutoffSamples {
			cutoffSamples[i] = r.Normal(0, 0.45) + r.Exponential(0.80)
		}
		sort.Float64s(cutoffSamples)
	})
	idx := int(float64(len(cutoffSamples)) * (1 - frac))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(cutoffSamples) {
		idx = len(cutoffSamples) - 1
	}
	return cutoffSamples[idx]
}

var (
	cutoffOnce    sync.Once
	cutoffSamples []float64
)

// CostWeights returns one non-negative weight per user proportional
// to the user's expected generation cost — the sum of the latent
// per-bin connection rates, which is what drives both the sampler's
// draw count and the emitter's record count. Range cutters
// (snapshot.CutRanges) use it to hand heavy-tail users out evenly:
// equal user counts skew worker wall-clock by the tail, equal expected
// cost does not.
func (p *Population) CostWeights() []float64 {
	out := make([]float64, len(p.Users))
	for i, u := range p.Users {
		out[i] = u.tcpRate + u.udpRate + u.dnsRate
	}
	return out
}

// Bins returns the total number of bins in this user's capture.
func (u *User) Bins() int { return u.cfg.TotalBins() }

// BinStartMicros returns the Unix-microsecond start time of bin.
func (u *User) BinStartMicros(bin int) int64 {
	return u.cfg.StartMicros + int64(bin)*u.cfg.BinWidth.Microseconds()
}

// Week returns the 0-based week index containing bin.
func (u *User) Week(bin int) int { return bin / u.cfg.BinsPerWeek() }
