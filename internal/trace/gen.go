package trace

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/features"
	"repro/internal/netsim"
	"repro/internal/pool"
	"repro/internal/xrand"
)

// Generator is the week-batched, zero-realloc sampling engine for one
// user. It produces exactly the traffic the per-bin reference path
// (User.sample) defines — the randomized equivalence
// tests pin the two bit-for-bit — but amortizes everything that the
// reference re-derives per bin:
//
//   - the (user, week) state — episode schedule, drift multipliers,
//     trend factor — is computed once per week instead of inside
//     every sample call (the reference allocates a fresh RNG and
//     episode slice per bin for each);
//   - the bin RNG is an embedded value reseeded in place, not a
//     fresh allocation;
//   - the SYN-retry and destination scratch slices are reused across
//     bins;
//   - destination draws go through a cached xrand.ZipfRanks rank
//     table built once per user (the reference rebuilds a Zipf
//     sampler every bin and pays two transcendentals per draw);
//   - distinct destinations are counted on an epoch-marked dense
//     table over the user's destination pool instead of a per-bin
//     map or quadratic scan.
//
// A Generator is NOT safe for concurrent use; create one per
// goroutine (they are cheap relative to a week of sampling). The
// zero value is not usable; construct with User.AcquireGenerator.
type Generator struct {
	u   *User
	src xrand.Source

	zipf *xrand.ZipfRanks
	// Integer thresholds deciding identically to the reference's
	// float compares (xrand.Threshold53), precomputed per user.
	synRetryT uint64

	// Cached per-(user, week) state.
	week             int // -1 when nothing is cached
	eps              []episode
	dTCP, dUDP, dDNS float64
	trend            float64

	// Reusable per-bin scratch.
	synRetries []int
	destIdx    []int

	// Epoch-marked distinct-destination counter: seen[d] == epoch
	// means destination d was already contacted in the current bin.
	// uint16 halves the table's cache footprint under the draw loop;
	// the wrap every 65535 bins costs one clear.
	seen  []uint16
	epoch uint16

	// EmitBin record scratch.
	recs []netsim.Record
}

// Construction-table pools: population sweeps build one Generator per
// user, and the construction allocations (the Generator itself, the
// Zipf rank/cell tables, the distinct-destination mark table) were
// the surviving alloc tail after the slab arenas. Generators cycle
// through a plain sync.Pool — their grown scratch slices ride along —
// and the mark table through a size-bucketed pool.
var (
	genPool  sync.Pool
	seenPool pool.Slices[uint16]
)

// AcquireGenerator returns a batch sampling engine for the user,
// drawing the engine and its construction tables from process-wide
// pools, so steady-state construction allocates next to nothing. Pair
// with Release; an unreleased engine is merely garbage, never corrupt.
func (u *User) AcquireGenerator() *Generator {
	g, _ := genPool.Get().(*Generator)
	if g == nil {
		g = new(Generator)
	}
	g.u = u
	g.zipf = xrand.NewZipfRanksPooled(u.poolSize, u.zipfS)
	g.synRetryT = xrand.Threshold53(u.synRetryP)
	g.week = -1
	g.seen = seenPool.Get(u.poolSize)
	// The mark table must start all-below-epoch: pooled storage is
	// dirty and could hold marks equal to a fresh epoch.
	clear(g.seen)
	g.epoch = 0
	return g
}

// Release returns a pooled engine's tables to the construction pools.
// The generator must not be used afterwards. Safe on engines from
// either constructor and on nil.
func (g *Generator) Release() {
	if g == nil {
		return
	}
	if g.zipf != nil {
		g.zipf.Release()
		g.zipf = nil
	}
	seenPool.Put(g.seen)
	g.seen = nil
	g.u = nil
	genPool.Put(g)
}

// state returns the cached (user, week) state, computing it on week
// change. The draws come from the same per-(user, week) salted
// streams the reference path uses, so the cached values are
// identical to what every sample call re-derives.
func (g *Generator) state(week int) {
	if g.week == week {
		return
	}
	u := g.u
	g.src.Reseed(u.weekSeed(week, 0x9e11))
	g.eps = u.appendEpisodes(&g.src, g.eps[:0])
	g.src.Reseed(u.weekSeed(week, 0xabcd))
	g.dTCP, g.dUDP, g.dDNS = u.driftFrom(&g.src)
	g.trend = math.Pow(u.cfg.WeeklyTrend, float64(week))
	g.week = week
}

// sampleInto draws the bin's realization. With realize it also fills
// the generator's scratch — destIdx (one destination-pool index per
// TCP+UDP connection, TCP first) and synRetries (extra SYN
// retransmissions per TCP connection) — which EmitBin materializes
// into packets. Without realize only the counts are produced: the
// per-connection draws still happen (the RNG stream is shared state)
// but nothing is stored, which keeps the heaviest users' per-bin
// scratch traffic — hundreds of kilobytes of writes that would evict
// the Zipf table and distinct counter between draws — off the counts
// path entirely. The arithmetic and RNG consumption mirror
// User.sample statement for statement — keep the two in sync (the
// equivalence tests enforce it).
func (g *Generator) sampleInto(bin int, realize bool) features.Counts {
	u := g.u
	week := u.Week(bin)
	g.state(week)
	r := &g.src
	r.Reseed(u.binSeed(bin))
	var c features.Counts
	level := episodeLevelAt(g.eps, bin-week*u.cfg.BinsPerWeek())
	// An episode keeps the laptop online (a running download or p2p
	// session); otherwise the offline draw may suspend the bin.
	// Activity is deterministic, so hoisting it above the draw leaves
	// the stream untouched (offlineProb derives from it either way).
	act := u.Activity(bin)
	offline := r.Float64() < offlineProbFor(act)
	if offline && level <= 1 {
		return c // laptop suspended: all-zero bin
	}
	if level > 1 && act < 0.45 {
		act = 0.45 // an episode implies the user is around
	}
	// Per-bin multiplicative noise, shared across features (a busy
	// bin is busy for every feature).
	noise := math.Exp(r.Normal(0, u.noiseSigma))
	// Rare single-bin "flash" events; see User.sample.
	if r.Float64() < 0.004 {
		flash := 4 * r.Pareto(1, 1.25)
		if flash > 250 {
			flash = 250
		}
		noise *= flash
	}
	mTCP := u.tcpRate * act * noise * g.dTCP * level * g.trend
	mUDP := u.udpRate * act * noise * g.dUDP * level * g.trend
	mDNS := u.dnsRate * act * noise * g.dDNS * math.Pow(level, 0.3) * g.trend

	c.TCP = r.Poisson(mTCP)
	c.UDP = r.Poisson(mUDP)
	c.DNS = r.Poisson(mDNS)
	c.HTTP = r.Binomial(c.TCP, u.httpFrac)

	// SYN retransmissions.
	c.TCPSYN = c.TCP
	if c.TCP > 0 {
		if realize {
			rt := g.retryScratch(c.TCP)
			for i := range rt {
				for r.Uint64()>>11 < g.synRetryT {
					rt[i]++
				}
				c.TCPSYN += rt[i]
			}
		} else {
			for i := 0; i < c.TCP; i++ {
				for r.Uint64()>>11 < g.synRetryT {
					c.TCPSYN++
				}
			}
		}
	}

	// Destination draws for TCP then UDP connections; DNS goes to
	// the enterprise resolver and contributes at most one distinct
	// destination.
	nDest := c.TCP + c.UDP
	if nDest > 0 {
		g.epoch++
		if g.epoch == 0 { // epoch wrapped: invalidate all marks
			clear(g.seen)
			g.epoch = 1
		}
		distinct := 0
		if realize {
			di := g.destScratch(nDest)
			for i := range di {
				d := g.zipf.Next(r) - 1
				di[i] = d
				if g.seen[d] != g.epoch {
					g.seen[d] = g.epoch
					distinct++
				}
			}
		} else {
			distinct = g.zipf.SampleDistinct(r, nDest, g.seen, g.epoch)
		}
		c.Distinct = distinct
	}
	if c.DNS > 0 {
		c.Distinct++
	}
	return c
}

// retryScratch returns a zeroed length-n retry buffer.
func (g *Generator) retryScratch(n int) []int {
	if cap(g.synRetries) < n {
		g.synRetries = make([]int, n+n/2)
	}
	rt := g.synRetries[:n]
	clear(rt)
	return rt
}

// destScratch returns a length-n destination buffer (fully
// overwritten by the caller).
func (g *Generator) destScratch(n int) []int {
	if cap(g.destIdx) < n {
		g.destIdx = make([]int, n+n/2)
	}
	return g.destIdx[:n]
}

// GenerateWeek fills one row per bin of the given week — rows must
// have exactly BinsPerWeek entries — with the six feature values in
// canonical order. This is the batch unit the enterprise
// materialization and the fleet harness are built on.
func (g *Generator) GenerateWeek(week int, rows [][features.NumFeatures]float64) {
	bpw := g.u.cfg.BinsPerWeek()
	if len(rows) != bpw {
		panic(fmt.Sprintf("trace: GenerateWeek rows %d != bins per week %d", len(rows), bpw))
	}
	if week < 0 || week >= g.u.cfg.Weeks {
		panic(fmt.Sprintf("trace: GenerateWeek week %d outside [0, %d)", week, g.u.cfg.Weeks))
	}
	base := week * bpw
	for i := range rows {
		rows[i] = g.sampleInto(base+i, false).AsVector()
	}
}

// EmitBin materializes the packet records of (user, bin), identical
// record for record to User.EmitBin, reusing the generator's scratch
// for the realization and the record buffer.
func (g *Generator) EmitBin(bin int, emit func(netsim.Record)) int {
	c := g.sampleInto(bin, true)
	if c.TCP == 0 && c.UDP == 0 && c.DNS == 0 {
		return 0
	}
	u := g.u
	// Timing and port draws come from a separate stream so they
	// cannot perturb the count-determining draws (same contract as
	// User.EmitBin).
	g.src.Reseed(u.emitSeed(bin))
	n, recs := u.emitSampled(&g.src, bin, c, g.destIdx[:c.TCP+c.UDP], g.synRetries[:c.TCP], g.recs[:0], emit)
	g.recs = recs
	return n
}
