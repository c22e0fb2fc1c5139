package trace

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/features"
	"repro/internal/xrand"
)

// binSample is the full latent realization of one (user, bin): the
// connection counts plus the destination draw for every non-DNS
// connection. Series summarizes it; EmitBin materializes packets
// from it. Both paths call this function with the same deterministic
// RNG, which is what guarantees packet-path == fast-path counts.
type binSample struct {
	counts features.Counts
	// destIdx has one destination-pool index per TCP+UDP connection
	// (TCP connections first).
	destIdx []int
	// synRetries has, per TCP connection, the number of extra SYN
	// retransmissions.
	synRetries []int
}

// binSeed returns the seed of the deterministic RNG stream for
// (user, bin). The coordinates mix through distinct odd multipliers
// so nearby (user, bin) pairs land in unrelated streams.
func (u *User) binSeed(bin int) uint64 {
	seed := u.cfg.Seed
	seed ^= uint64(u.ID+1) * 0x9e3779b97f4a7c15
	seed ^= uint64(bin+1) * 0xc2b2ae3d27d4eb4f
	return seed
}

// rng returns the deterministic RNG stream for (user, bin).
func (u *User) rng(bin int) *xrand.Source {
	return xrand.New(u.binSeed(bin))
}

// weekSeed returns the seed of the deterministic RNG for (user, week)
// draws; salt separates independent uses (drift vs episodes).
func (u *User) weekSeed(week int, salt uint64) uint64 {
	seed := u.cfg.Seed
	seed ^= uint64(u.ID+1) * 0x9e3779b97f4a7c15
	seed ^= uint64(week+1) * 0xd6e8feb86659fd93
	return seed ^ salt
}

// weekRng returns the deterministic RNG for (user, week) draws.
func (u *User) weekRng(week int, salt uint64) *xrand.Source {
	return xrand.New(u.weekSeed(week, salt))
}

// episode is one sustained high-activity session (a bulk download, a
// p2p client left running, a backup): a contiguous run of bins whose
// traffic rates are multiplied by a heavy-tailed level. Episodes are
// what create each user's own upper tail, and because their levels
// re-draw every week, thresholds learned from one week's episodes
// rarely reflect an exact 1% false-positive rate the next week — the
// instability the paper observes in §6.1.
type episode struct {
	start, end int // bin range [start, end) within the week
	level      float64
}

// episodeSlot is a habitual session time in a user's week.
type episodeSlot struct {
	start, dur int
}

// episodes returns the user's episode sessions for a week,
// deterministically derived from (seed, user, week).
func (u *User) episodes(week int) []episode {
	return u.appendEpisodes(u.weekRng(week, 0x9e11), nil)
}

// appendEpisodes derives one week's episodes from r — which must be
// freshly seeded to the (user, week, 0x9e11) stream — appending to
// eps. It is shared by the per-bin reference path (episodes) and the
// batch generator's per-week cache, so both consume the identical
// draw sequence.
func (u *User) appendEpisodes(r *xrand.Source, eps []episode) []episode {
	// Low-variance episode count: usage patterns recur week to week.
	n := int(u.episodeRate)
	if r.Float64() < u.episodeRate-float64(n) {
		n++
	}
	for i := 0; i < n; i++ {
		slot := u.episodeSlots[i%len(u.episodeSlots)]
		start := slot.start + r.Intn(5) - 2 // habitual time with ±30 min jitter
		if start < 0 {
			start = 0
		}
		level := u.episodeBase * math.Exp(0.10*r.NormFloat64())
		if level < 1 {
			level = 1
		}
		if level > 400 {
			level = 400
		}
		eps = append(eps, episode{start: start, end: start + slot.dur, level: level})
	}
	return eps
}

// episodeLevel returns the episode multiplier in effect at bin (1 if
// none).
func (u *User) episodeLevel(bin int) float64 {
	week := u.Week(bin)
	off := bin - week*u.cfg.BinsPerWeek()
	return episodeLevelAt(u.episodes(week), off)
}

// episodeLevelAt returns the episode multiplier in effect at the
// given bin offset within the week.
func episodeLevelAt(eps []episode, off int) float64 {
	level := 1.0
	for _, e := range eps {
		if off >= e.start && off < e.end && e.level > level {
			level = e.level
		}
	}
	return level
}

// Activity returns the deterministic diurnal/weekly activity
// multiplier for bin, before the random offline draw. Exposed so
// tests can check the cycle shape.
func (u *User) Activity(bin int) float64 {
	binsPerDay := u.cfg.BinsPerWeek() / 7
	day := (bin / binsPerDay) % 7 // 0 = Monday (start is Monday 00:00)
	hour := float64(bin%binsPerDay) / float64(binsPerDay) * 24
	weekend := day >= 5
	switch {
	case weekend && hour >= 10 && hour < 22:
		return 0.25
	case weekend:
		return 0.05
	case hour >= 9 && hour < 18: // office hours
		return 1.0
	case hour >= 7 && hour < 9, hour >= 18 && hour < 23: // commute/home
		return 0.45
	default: // night
		return 0.04
	}
}

// offlineProb is the probability the laptop is suspended during bin.
func (u *User) offlineProb(bin int) float64 {
	return offlineProbFor(u.Activity(bin))
}

// offlineProbFor maps the activity multiplier to the suspension
// probability; shared by the reference path and the batch generator
// (which computes Activity once per bin).
func offlineProbFor(act float64) float64 {
	switch {
	case act >= 1.0:
		return 0.08
	case act >= 0.45:
		return 0.40
	case act >= 0.25:
		return 0.55
	default:
		return 0.80
	}
}

// driftFrom draws the weekly drift triple from r, which must be
// freshly seeded to the (user, week, 0xabcd) stream; shared by
// weekDrift and the batch generator's per-week cache.
func (u *User) driftFrom(r *xrand.Source) (float64, float64, float64) {
	sigma := 0.05 + 0.42*sigmoid(1.6*(u.Size-1.9))
	return math.Exp(r.Normal(0, sigma)),
		math.Exp(r.Normal(0, sigma)),
		math.Exp(r.Normal(0, 0.5*sigma))
}

// weekDrift returns the per-feature multiplicative drift for the
// user's given week: (tcp, udp, dns). Drift volatility grows with
// user size: heavy users' upper-tail behavior is far less stationary
// week-over-week than light users' (new applications, bulk
// transfers), which is the mechanism behind the paper's Table 3 —
// the global monoculture threshold sits inside the heavy users'
// dense region, so their drift floods the console with false alarms,
// while per-user thresholds sit in each user's own sparse tail.
func (u *User) weekDrift(week int) (float64, float64, float64) {
	return u.driftFrom(u.weekRng(week, 0xabcd))
}

// sample draws the bin's full realization. It is the reference
// sampler: a self-contained per-bin derivation kept deliberately
// simple (fresh RNGs, fresh slices) that defines the model. The
// batch engine (Generator.sampleInto) re-implements it with cached
// week state and pooled scratch and must stay draw-for-draw
// identical; the randomized equivalence tests in gen_test.go pin the
// two together.
func (u *User) sample(bin int) binSample {
	r := u.rng(bin)
	var s binSample
	level := u.episodeLevel(bin)
	// An episode keeps the laptop online (a running download or p2p
	// session); otherwise the offline draw may suspend the bin.
	offline := r.Float64() < u.offlineProb(bin)
	if offline && level <= 1 {
		return s // laptop suspended: all-zero bin
	}
	act := u.Activity(bin)
	if level > 1 && act < 0.45 {
		act = 0.45 // an episode implies the user is around
	}
	// Per-bin multiplicative noise, shared across features (a busy
	// bin is busy for every feature).
	noise := math.Exp(r.Normal(0, u.noiseSigma))
	// Rare single-bin "flash" events (an update storm, an aggressive
	// application burst): every user occasionally spikes far above
	// their routine, which is what spreads the monoculture policy's
	// per-user false-positive rates across decades (Fig 5a).
	if r.Float64() < 0.004 {
		flash := 4 * r.Pareto(1, 1.25)
		if flash > 250 {
			flash = 250
		}
		noise *= flash
	}
	dTCP, dUDP, dDNS := u.weekDrift(u.Week(bin))
	trend := math.Pow(u.cfg.WeeklyTrend, float64(u.Week(bin)))
	mTCP := u.tcpRate * act * noise * dTCP * level * trend
	mUDP := u.udpRate * act * noise * dUDP * level * trend
	mDNS := u.dnsRate * act * noise * dDNS * math.Pow(level, 0.3) * trend

	s.counts.TCP = r.Poisson(mTCP)
	s.counts.UDP = r.Poisson(mUDP)
	s.counts.DNS = r.Poisson(mDNS)
	s.counts.HTTP = r.Binomial(s.counts.TCP, u.httpFrac)

	// SYN retransmissions.
	s.counts.TCPSYN = s.counts.TCP
	if s.counts.TCP > 0 {
		s.synRetries = make([]int, s.counts.TCP)
		for i := range s.synRetries {
			for r.Float64() < u.synRetryP {
				s.synRetries[i]++
			}
			s.counts.TCPSYN += s.synRetries[i]
		}
	}

	// Destination draws for TCP then UDP connections; DNS goes to the
	// enterprise resolver and contributes at most one distinct
	// destination.
	nDest := s.counts.TCP + s.counts.UDP
	if nDest > 0 {
		s.destIdx = make([]int, nDest)
		zipf := xrand.NewZipf(r, u.poolSize, u.zipfS)
		for i := range s.destIdx {
			s.destIdx[i] = zipf.Next() - 1
		}
		s.counts.Distinct = countDistinct(s.destIdx)
	}
	if s.counts.DNS > 0 {
		s.counts.Distinct++
	}
	return s
}

// distinctScratch pools the sort buffers of countDistinct's large
// path, so concurrent per-bin callers stay allocation-free above 32
// destinations.
var distinctScratch = sync.Pool{
	New: func() any { s := make([]int, 0, 256); return &s },
}

// countDistinct counts unique values in idx without mutating it.
func countDistinct(idx []int) int {
	if len(idx) <= 1 {
		return len(idx)
	}
	if len(idx) <= 32 {
		// quadratic path avoids any scratch for the common case
		n := 0
		for i, v := range idx {
			dup := false
			for _, w := range idx[:i] {
				if w == v {
					dup = true
					break
				}
			}
			if !dup {
				n++
			}
		}
		return n
	}
	// Sort a pooled copy and count runs: no per-bin map, no per-bin
	// allocation. (The batch generator counts on an epoch-marked
	// dense table instead; see Generator.)
	bufp := distinctScratch.Get().(*[]int)
	buf := append((*bufp)[:0], idx...)
	sort.Ints(buf)
	n := 1
	for i := 1; i < len(buf); i++ {
		if buf[i] != buf[i-1] {
			n++
		}
	}
	*bufp = buf
	distinctScratch.Put(bufp)
	return n
}

// Series materializes the full per-bin feature matrix for the user:
// one row per bin in canonical feature order. This is the fast path
// used by the large-scale experiments and the fleet harness: it runs
// on a week-batched Generator, so per-week state, sampling scratch
// and the Zipf rank table are computed once instead of per bin.
func (u *User) Series() *features.Matrix {
	rows := make([][features.NumFeatures]float64, u.Bins())
	u.FillSeries(rows)
	return &features.Matrix{BinWidth: u.cfg.BinWidth, StartMicros: u.cfg.StartMicros, Rows: rows}
}

// FillSeries fills rows (len Bins()) with the user's full series via
// the week-batched generator, without wrapping them in a Matrix.
func (u *User) FillSeries(rows [][features.NumFeatures]float64) {
	if len(rows) != u.Bins() {
		panic(fmt.Sprintf("trace: FillSeries rows %d != bins %d", len(rows), u.Bins()))
	}
	g := u.AcquireGenerator()
	defer g.Release()
	for w := 0; w < u.cfg.Weeks; w++ {
		lo, hi := u.WeekSlice(w)
		g.GenerateWeek(w, rows[lo:hi])
	}
}

// WeekSlice returns the half-open bin range [lo, hi) of the given
// 0-based week.
func (u *User) WeekSlice(week int) (lo, hi int) {
	bw := u.cfg.BinsPerWeek()
	return week * bw, (week + 1) * bw
}
