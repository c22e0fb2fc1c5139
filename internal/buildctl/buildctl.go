// Package buildctl is the snapshot build coordinator — the one path
// by which a store is sealed, whether its parts are built by one
// in-process worker, many, or daemons on other hosts. It drives the
// build to completion while workers crash, hang, slow down, or seal
// corrupt parts.
//
// The design leans on two properties the snapshot layer already
// guarantees. First, a part build is deterministic — every attempt at
// the same range seals byte-identical bytes via temp-file + atomic
// rename — so duplicate attempts (retries racing stragglers, hedges
// racing hangs) can never disagree; whichever seals first wins and
// the rest are harmless. Second, snapshot.VerifyPart proves a sealed
// part sound end to end, so the coordinator never trusts a worker's
// word: the file on disk is the output, and only a verified file
// counts as done work. Together these make the whole control plane
// idempotent: kill a build anywhere and rerunning resumes from the
// verified parts on disk.
//
// The coordinator itself is a single-goroutine event loop over a
// bounded pool of attempt goroutines: ranges come from
// snapshot.CutRanges over per-user cost weights, failed attempts back
// off with seeded jitter and retry, ranges that keep failing are
// re-cut in half and redistributed, and a running attempt that falls
// far behind the completed-attempt median is hedged with a duplicate
// dispatch. When every range is done snapshot.MergeShards seals the
// parts; its bytes do not depend on how the population was cut.
package buildctl

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sort"
	"time"

	"repro/internal/par"
	"repro/internal/snapshot"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// Options configures one coordinated build. Dir, Key and Worker are
// required; everything else has serviceable defaults.
type Options struct {
	Dir    string
	Key    snapshot.Key
	Worker Worker

	// Parallel bounds concurrently running attempts (hedges included).
	// <= 0 means GOMAXPROCS; either way it is clamped to the user
	// count.
	Parallel int
	// Ranges is the target number of initial ranges (<= 0: Parallel).
	// More ranges than workers buys finer-grained retries and resumes
	// at the cost of more part files to merge.
	Ranges int
	// Weights optionally supplies per-user generation cost for the
	// range cuts (one non-negative weight per user); nil or a
	// wrong-length slice means equal user counts. As everywhere else,
	// weights change worker assignment, never sealed bytes.
	Weights []float64
	// WeightsFn, when non-nil, is consulted instead of Weights every
	// time ranges are cut — at the resume scan and at every re-cut —
	// so a transport that observes per-host throughput can steer later
	// cuts while a build is running. It must return one non-negative
	// weight per user (anything else falls back to Weights). Called
	// from the event-loop goroutine only.
	WeightsFn func() []float64
	// AttemptTimeout bounds one attempt's wall-clock; 0 means no
	// deadline. Builds whose workers can hang need either a deadline
	// or hedging (HedgeAfter) to guarantee progress.
	AttemptTimeout time.Duration
	// Backoff is the base delay before retrying a failed range,
	// doubling per consecutive failure up to BackoffMax, with seeded
	// jitter in [0.5, 1.0)× so synchronized failures spread out.
	// Defaults: 20ms base, 2s cap.
	Backoff    time.Duration
	BackoffMax time.Duration
	// MaxAttempts bounds attempts per range (hedges included) before
	// the build aborts (default 4). Re-cutting resets the count: the
	// children are new, narrower ranges.
	MaxAttempts int
	// RecutAfter is the number of consecutive failures after which a
	// range of width >= 2 is split in half (by weight) and
	// redistributed instead of retried whole (default 2). Set it
	// above MaxAttempts to disable re-cutting.
	RecutAfter int

	// HedgeAfter is the minimum elapsed time before a lone running
	// attempt may be hedged with a duplicate dispatch. HedgeFactor
	// scales the running median of completed attempt durations into
	// the straggler threshold (default 3; < 0 disables hedging); the
	// effective threshold is max(HedgeAfter, HedgeFactor × median),
	// or HedgeAfter alone until the first attempt completes. With
	// HedgeAfter 0 and nothing completed yet, nothing is hedged.
	HedgeAfter  time.Duration
	HedgeFactor float64

	// Seed drives retry jitter. Same seed, same jitter schedule.
	Seed uint64
	// HaltAfter, when > 0, stops the build with ErrHalted after that
	// many newly sealed parts — the hook the resume tests and the
	// chaos smoke use to kill a build mid-flight deterministically.
	HaltAfter int
	// Logf, when non-nil, receives one line per notable event
	// (failures, hedges, re-cuts, quarantines, resumes).
	Logf func(format string, args ...any)
}

// ErrHalted reports a build stopped by Options.HaltAfter. The build
// is resumable: rerunning the same Options picks up the sealed parts.
var ErrHalted = errors.New("buildctl: halted before completion (resumable)")

// Stats describes what one Build call did.
type Stats struct {
	Warm             bool          // snapshot already sealed; nothing ran
	Ranges           int           // ranges scheduled (initial cuts + re-cut children)
	Attempts         int           // attempts dispatched, hedges included
	Failures         int           // attempts that failed or sealed an invalid part
	Hedges           int           // duplicate dispatches against stragglers
	Recuts           int           // ranges split after repeated failure
	SealedParts      int           // parts newly sealed and verified by this run
	ResumedParts     int           // verified parts adopted from a previous run
	ResumedUsers     int           // users covered by adopted parts
	QuarantinedParts int           // corrupt parts moved to *.bad
	RebuiltUsers     int           // users dispatched more than once (retries + hedges)
	MergedParts      int           // parts spliced into the sealed snapshot
	Elapsed          time.Duration // wall-clock of the whole Build call
}

// Build drives the key's snapshot to sealed under dir, tolerating
// worker failure. It resumes from any verified parts already on disk,
// quarantines corrupt ones, retries/hedges/re-cuts per Options, and
// finishes with snapshot.MergeShards — so the sealed snapshot and
// manifest are byte-identical whatever the range count, worker or
// failure history. ctx cancellation aborts in-flight attempts and
// returns ctx's error; sealed parts stay behind for the next run to
// resume from.
func Build(ctx context.Context, opts Options) (st Stats, err error) {
	start := time.Now()
	defer func() { st.Elapsed = time.Since(start) }()
	o, err := opts.withDefaults()
	if err != nil {
		return st, err
	}
	s, oerr := snapshot.Open(o.Dir, o.Key)
	if oerr == nil {
		s.Close()
		st.Warm = true
		return st, nil
	}
	if !errors.Is(oerr, fs.ErrNotExist) {
		o.Logf("buildctl: rebuilding over an unusable snapshot: %v", oerr)
	}
	// Two rounds: if the merge rejects a part (a worker corrupted it
	// after verification — the one window verification cannot close),
	// re-scan from disk, quarantine what fails, rebuild the holes and
	// merge again.
	for round := 0; ; round++ {
		c := newCoordinator(o, &st)
		if err := c.scan(); err != nil {
			return st, err
		}
		if err := c.run(ctx); err != nil {
			return st, err
		}
		c.sweepStrays()
		n, merr := snapshot.MergeShards(o.Dir, o.Key)
		if merr == nil {
			st.MergedParts = n
			return st, nil
		}
		if round >= 1 {
			return st, fmt.Errorf("buildctl: merge failed after re-verification: %w", merr)
		}
		o.Logf("buildctl: merge failed (%v); re-verifying parts and rebuilding", merr)
	}
}

func (o Options) withDefaults() (Options, error) {
	if o.Worker == nil {
		return o, errors.New("buildctl: Options.Worker is required")
	}
	o.Parallel = par.Workers(o.Parallel, o.Key.Users)
	if o.Ranges <= 0 {
		o.Ranges = o.Parallel
	}
	if o.Backoff <= 0 {
		o.Backoff = 20 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 4
	}
	if o.RecutAfter <= 0 {
		o.RecutAfter = 2
	}
	if o.HedgeFactor == 0 {
		o.HedgeFactor = 3
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o, nil
}

// rangeState is the coordinator's view of one contiguous user range.
type rangeState struct {
	lo, hi   int
	attempts int   // attempts dispatched (hedges included)
	failures int   // consecutive failed attempts
	lastErr  error // most recent failure, for the abort message
	readyAt  time.Time
	done     bool
	running  map[int]*attemptState
}

type attemptState struct {
	id     int
	start  time.Time
	cancel context.CancelFunc
}

type attemptResult struct {
	lo, hi  int
	id      int
	err     error
	elapsed time.Duration
}

type coordinator struct {
	opts      Options
	st        *Stats
	rng       *xrand.Source // jitter; event-loop goroutine only
	ranges    map[[2]int]*rangeState
	attempts  map[int]*attemptState // every in-flight attempt by id
	results   chan attemptResult
	durations []time.Duration // completed successful attempt durations
	inflight  int
	covered   int // users in done ranges
	sealedNew int // parts sealed by this run (HaltAfter budget)
	nextID    int
}

func newCoordinator(opts Options, st *Stats) *coordinator {
	return &coordinator{
		opts:     opts,
		st:       st,
		rng:      xrand.New(opts.Seed ^ 0xb171dc71c0ffee01),
		ranges:   make(map[[2]int]*rangeState),
		attempts: make(map[int]*attemptState),
		results:  make(chan attemptResult, 2*opts.Parallel+4),
	}
}

func (c *coordinator) addRange(lo, hi int) *rangeState {
	rs := &rangeState{lo: lo, hi: hi, running: make(map[int]*attemptState)}
	c.ranges[[2]int{lo, hi}] = rs
	c.st.Ranges++
	return rs
}

// scan is the resume pass: adopt every verified non-overlapping part
// already on disk as done work, quarantine parts that fail
// verification, discard valid parts that overlap adopted ones (a
// re-cut parent from an abandoned run cannot tile with its children),
// and cut the remaining gaps into build ranges.
func (c *coordinator) scan() error {
	parts, err := snapshot.ListParts(c.opts.Dir, c.opts.Key)
	if err != nil {
		return err
	}
	users := c.opts.Key.Users
	next := 0
	var gaps [][2]int
	for _, p := range parts {
		if p.Lo < next {
			os.Remove(p.Path)
			c.opts.Logf("buildctl: removed part [%d, %d): overlaps adopted work", p.Lo, p.Hi)
			continue
		}
		if _, verr := snapshot.VerifyPart(c.opts.Dir, c.opts.Key, p.Lo, p.Hi); verr != nil {
			if bad, qerr := snapshot.QuarantinePart(p.Path); qerr == nil {
				c.st.QuarantinedParts++
				c.opts.Logf("buildctl: quarantined %s: %v", bad, verr)
			}
			continue
		}
		rs := c.addRange(p.Lo, p.Hi)
		c.st.Ranges-- // adopted, not scheduled
		rs.done = true
		c.covered += p.Hi - p.Lo
		c.st.ResumedParts++
		c.st.ResumedUsers += p.Hi - p.Lo
		if p.Lo > next {
			gaps = append(gaps, [2]int{next, p.Lo})
		}
		next = p.Hi
	}
	if next < users {
		gaps = append(gaps, [2]int{next, users})
	}
	if c.st.ResumedParts > 0 {
		c.opts.Logf("buildctl: resumed %d verified parts covering %d/%d users",
			c.st.ResumedParts, c.covered, users)
	}
	for _, g := range gaps {
		width := g[1] - g[0]
		// Each gap gets its proportional share of the target range
		// count, at least one.
		k := (width*c.opts.Ranges + users - 1) / users
		for _, cut := range snapshot.CutRanges(c.rangeWeights(g[0], g[1]), k) {
			c.addRange(g[0]+cut[0], g[0]+cut[1])
		}
	}
	return nil
}

// rangeWeights returns the per-user cost weights of [lo, hi), or an
// all-zero slice (→ equal-count cuts) when none were supplied.
// WeightsFn wins over the static Weights so observed-cost feedback
// reaches re-cuts made mid-build.
func (c *coordinator) rangeWeights(lo, hi int) []float64 {
	if c.opts.WeightsFn != nil {
		if w := c.opts.WeightsFn(); len(w) == c.opts.Key.Users {
			return w[lo:hi]
		}
	}
	if len(c.opts.Weights) == c.opts.Key.Users {
		return c.opts.Weights[lo:hi]
	}
	return make([]float64, hi-lo)
}

// run is the event loop: dispatch ready ranges into free slots, react
// to attempt results, hedge stragglers on the tick. It returns once
// every user is covered by a verified part, the halt budget is spent,
// ctx dies, or a range exhausts its attempts.
func (c *coordinator) run(ctx context.Context) error {
	tick := time.NewTicker(c.tickEvery())
	defer tick.Stop()
	for {
		if c.covered >= c.opts.Key.Users {
			c.shutdown()
			return nil
		}
		if c.opts.HaltAfter > 0 && c.sealedNew >= c.opts.HaltAfter {
			c.opts.Logf("buildctl: halting after %d newly sealed parts", c.sealedNew)
			c.shutdown()
			return ErrHalted
		}
		c.dispatch(ctx)
		select {
		case <-ctx.Done():
			c.shutdown()
			return ctx.Err()
		case r := <-c.results:
			if err := c.handle(r); err != nil {
				c.shutdown()
				return err
			}
		case <-tick.C:
			c.maybeHedge(ctx)
		}
	}
}

// tickEvery sizes the housekeeping tick under the smallest timing
// knob in play so backoff expiry and hedge thresholds are observed
// promptly without a hot loop.
func (c *coordinator) tickEvery() time.Duration {
	d := 25 * time.Millisecond
	if c.opts.HedgeAfter > 0 && c.opts.HedgeAfter/4 < d {
		d = c.opts.HedgeAfter / 4
	}
	if c.opts.Backoff/2 < d {
		d = c.opts.Backoff / 2
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// readyRanges returns the not-done ranges with no attempt in flight
// whose backoff has expired, lowest user first — the deterministic
// dispatch order.
func (c *coordinator) readyRanges(now time.Time) []*rangeState {
	var out []*rangeState
	for _, rs := range c.ranges {
		if !rs.done && len(rs.running) == 0 && !rs.readyAt.After(now) {
			out = append(out, rs)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].lo < out[j].lo })
	return out
}

func (c *coordinator) dispatch(ctx context.Context) {
	if c.inflight >= c.opts.Parallel {
		return
	}
	for _, rs := range c.readyRanges(time.Now()) {
		if c.inflight >= c.opts.Parallel {
			return
		}
		c.launch(ctx, rs, false)
	}
}

// launch starts one attempt goroutine for rs. The goroutine builds,
// then — only on a claimed success — verifies the sealed part end to
// end before reporting, so the event loop never sees an unproven
// "done". Verification runs out here, off the event loop, because it
// streams the whole part; concurrent verifies of one range are safe
// (every seal of a range is byte-identical).
func (c *coordinator) launch(ctx context.Context, rs *rangeState, hedge bool) {
	t := Task{Lo: rs.lo, Hi: rs.hi, Attempt: rs.attempts}
	rs.attempts++
	c.st.Attempts++
	if t.Attempt > 0 {
		c.st.RebuiltUsers += rs.hi - rs.lo
	}
	if hedge {
		c.st.Hedges++
		c.opts.Logf("buildctl: hedging straggler %v", t)
	}
	var actx context.Context
	var cancel context.CancelFunc
	if c.opts.AttemptTimeout > 0 {
		actx, cancel = context.WithTimeout(ctx, c.opts.AttemptTimeout)
	} else {
		actx, cancel = context.WithCancel(ctx)
	}
	a := &attemptState{id: c.nextID, start: time.Now(), cancel: cancel}
	c.nextID++
	rs.running[a.id] = a
	c.attempts[a.id] = a
	c.inflight++
	go func() {
		err := c.opts.Worker.Build(actx, t)
		if err == nil {
			if _, verr := snapshot.VerifyPart(c.opts.Dir, c.opts.Key, t.Lo, t.Hi); verr != nil {
				err = fmt.Errorf("sealed part failed verification: %w", verr)
			}
		}
		c.results <- attemptResult{lo: t.Lo, hi: t.Hi, id: a.id, err: err, elapsed: time.Since(a.start)}
	}()
}

// handle folds one attempt result into the range state. A non-nil
// return aborts the whole build.
func (c *coordinator) handle(r attemptResult) error {
	c.inflight--
	// Cancel through the attempt registry, not the range state: every
	// result path — including a range re-cut away under a late result —
	// must release the attempt's context (and its deadline timer).
	if a := c.attempts[r.id]; a != nil {
		delete(c.attempts, r.id)
		a.cancel()
	}
	rs := c.ranges[[2]int{r.lo, r.hi}]
	if rs == nil {
		return nil // range re-cut away; nothing to account against
	}
	delete(rs.running, r.id)
	if rs.done {
		return nil // a sibling (hedge) already completed the range
	}
	if r.err == nil {
		rs.done = true
		rs.lastErr = nil
		c.covered += rs.hi - rs.lo
		c.sealedNew++
		c.st.SealedParts++
		c.durations = append(c.durations, r.elapsed)
		// Stragglers of a done range only burn slots; their seals
		// would be byte-identical anyway.
		for _, sib := range rs.running {
			sib.cancel()
		}
		return nil
	}
	c.st.Failures++
	rs.failures++
	rs.lastErr = r.err
	c.opts.Logf("buildctl: attempt on [%d, %d) failed (%d consecutive): %v", rs.lo, rs.hi, rs.failures, r.err)
	if IsFatal(r.err) {
		return fmt.Errorf("buildctl: range [%d, %d): %w", rs.lo, rs.hi, r.err)
	}
	if len(rs.running) > 0 {
		return nil // a hedge is still in flight; it decides the range's fate
	}
	// All attempts down. Anything left at the part path failed
	// verification (or was sealed by a worker that then reported an
	// error) — move it out of the rebuild's way.
	if bad, qerr := snapshot.QuarantinePart(c.opts.Key.PartPath(c.opts.Dir, rs.lo, rs.hi)); qerr == nil {
		c.st.QuarantinedParts++
		c.opts.Logf("buildctl: quarantined %s", bad)
	}
	if rs.failures >= c.opts.RecutAfter && rs.hi-rs.lo >= 2 {
		c.recut(rs)
		return nil
	}
	if rs.attempts >= c.opts.MaxAttempts {
		return fmt.Errorf("buildctl: range [%d, %d) failed %d attempts: %w", rs.lo, rs.hi, rs.attempts, r.err)
	}
	rs.readyAt = time.Now().Add(wire.Backoff{Base: c.opts.Backoff, Max: c.opts.BackoffMax}.Delay(rs.failures, c.rng))
	return nil
}

// recut splits a repeatedly failing range in half by weight and
// schedules the fresh halves — narrowing the blast radius of a
// poisoned range (one pathological user, one bad disk region) while
// the healthy half proceeds.
func (c *coordinator) recut(rs *rangeState) {
	delete(c.ranges, [2]int{rs.lo, rs.hi})
	c.st.Recuts++
	cuts := snapshot.CutRanges(c.rangeWeights(rs.lo, rs.hi), 2)
	for _, cut := range cuts {
		c.addRange(rs.lo+cut[0], rs.lo+cut[1])
	}
	c.opts.Logf("buildctl: re-cut [%d, %d) after %d failures into %d ranges", rs.lo, rs.hi, rs.failures, len(cuts))
}

// hedgeThreshold is the elapsed time past which a lone running
// attempt counts as a straggler.
func (c *coordinator) hedgeThreshold() time.Duration {
	if len(c.durations) == 0 {
		return c.opts.HedgeAfter // 0 → no hedging before the first completion
	}
	meds := append([]time.Duration(nil), c.durations...)
	sort.Slice(meds, func(i, j int) bool { return meds[i] < meds[j] })
	thr := time.Duration(c.opts.HedgeFactor * float64(meds[len(meds)/2]))
	if thr < c.opts.HedgeAfter {
		thr = c.opts.HedgeAfter
	}
	return thr
}

// maybeHedge dispatches a duplicate attempt against each range whose
// single running attempt has straggled past the threshold, capacity
// permitting. Duplicate seals are byte-identical, so first valid wins
// and the loser is cancelled — hangs stop costing a full attempt
// deadline.
func (c *coordinator) maybeHedge(ctx context.Context) {
	if c.opts.HedgeFactor < 0 || c.inflight >= c.opts.Parallel {
		return
	}
	thr := c.hedgeThreshold()
	if thr <= 0 {
		return
	}
	now := time.Now()
	var lagging []*rangeState
	for _, rs := range c.ranges {
		if rs.done || len(rs.running) != 1 {
			continue
		}
		for _, a := range rs.running {
			if now.Sub(a.start) > thr {
				lagging = append(lagging, rs)
			}
		}
	}
	sort.Slice(lagging, func(i, j int) bool { return lagging[i].lo < lagging[j].lo })
	for _, rs := range lagging {
		if c.inflight >= c.opts.Parallel {
			return
		}
		c.launch(ctx, rs, true)
	}
}

// shutdown cancels every running attempt and drains their results so
// no goroutine outlives the build. Late verified successes are still
// adopted — the part is sealed and sound whether or not anyone waits
// for it, and resumed builds will find it.
func (c *coordinator) shutdown() {
	for _, a := range c.attempts {
		a.cancel()
	}
	for c.inflight > 0 {
		r := <-c.results
		c.inflight--
		delete(c.attempts, r.id)
		rs := c.ranges[[2]int{r.lo, r.hi}]
		if rs != nil {
			delete(rs.running, r.id)
		}
		if rs != nil && !rs.done && r.err == nil {
			rs.done = true
			c.covered += rs.hi - rs.lo
			c.sealedNew++
			c.st.SealedParts++
		}
	}
}

// sweepStrays removes sealed parts that do not correspond to a done
// range — recut parents or hedge leftovers whose geometry no longer
// tiles — so the merge sees exactly the coordinated tiling.
func (c *coordinator) sweepStrays() {
	parts, err := snapshot.ListParts(c.opts.Dir, c.opts.Key)
	if err != nil {
		return
	}
	for _, p := range parts {
		rs := c.ranges[[2]int{p.Lo, p.Hi}]
		if rs == nil || !rs.done {
			os.Remove(p.Path)
			c.opts.Logf("buildctl: removed stray part [%d, %d)", p.Lo, p.Hi)
		}
	}
}
