package repro

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/par"
	"repro/internal/stats"
)

// ExperimentConfig holds the common parameters of the §6 evaluation.
type ExperimentConfig struct {
	// TrainWeek and TestWeek implement the week-n-train /
	// week-n+1-test methodology.
	TrainWeek, TestWeek int
	// Feature is the feature under evaluation where the paper fixes
	// one (TCP connections for Fig 3/4, distinct connections for
	// Fig 5).
	Feature features.Feature
	// UtilityW is the false-negative weight of the utility heuristic
	// (the paper uses 0.4 for Fig 3a and Table 3).
	UtilityW float64
	// EvadeProb is the resourceful attacker's per-window evasion
	// target (the paper uses 0.9).
	EvadeProb float64
	// SweepPoints is the resolution of attack-size sweeps.
	SweepPoints int
	// Seed drives experiment-level randomness (attack placement,
	// Storm synthesis) independently of the population seed.
	Seed uint64
}

// DefaultExperimentConfig returns the paper's settings.
func DefaultExperimentConfig() ExperimentConfig {
	return ExperimentConfig{
		TrainWeek:   0,
		TestWeek:    1,
		Feature:     features.TCP,
		UtilityW:    0.4,
		EvadeProb:   0.9,
		SweepPoints: 24,
		Seed:        0xf1f0,
	}
}

// ---------------------------------------------------------------------------
// Fig 1 — tail diversity across features

// Fig1Feature is one panel of Fig 1: the sorted per-user thresholds.
type Fig1Feature struct {
	Feature features.Feature
	// P99 and P999 are per-user 99th / 99.9th percentile thresholds,
	// each sorted ascending ("User ID arranged by tail diversity").
	P99, P999 []float64
	// SpreadDecades is log10(p98 / p2) of the P99 values: how many
	// orders of magnitude the population's thresholds span.
	SpreadDecades float64
}

// Fig1Result reproduces Fig 1(a)-(f).
type Fig1Result struct {
	Panels []Fig1Feature
}

// Fig1 computes per-user 99th and 99.9th percentile thresholds for
// all six features over the training week. The per-feature panels
// come from the workspace's memoized per-user quantile vectors and
// build in parallel.
func Fig1(e *Enterprise, cfg ExperimentConfig) (*Fig1Result, error) {
	all := features.All()
	res := &Fig1Result{Panels: make([]Fig1Feature, len(all))}
	err := par.ForEachErr(len(all), 0, func(i int) error {
		f := all[i]
		p99, err := e.TailStats(f, cfg.TrainWeek, 0.99)
		if err != nil {
			return err
		}
		p999, err := e.TailStats(f, cfg.TrainWeek, 0.999)
		if err != nil {
			return err
		}
		sort.Float64s(p99)
		sort.Float64s(p999)
		res.Panels[i] = Fig1Feature{
			Feature:       f,
			P99:           p99,
			P999:          p999,
			SpreadDecades: spreadDecades(p99),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// spreadDecades reads the 2nd/98th percentiles straight off an
// already-sorted slice via the stats fast path (no copy-and-sort).
func spreadDecades(sorted []float64) float64 {
	lo, err := stats.QuantileSorted(sorted, 0.02)
	if err != nil {
		return 0
	}
	hi, _ := stats.QuantileSorted(sorted, 0.98)
	if lo < 1 {
		lo = 1
	}
	if hi <= lo {
		return 0
	}
	return math.Log10(hi / lo)
}

// String renders one line per feature with the threshold range.
func (r *Fig1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 1 — per-user 99th/99.9th percentile thresholds (sorted)\n")
	for _, p := range r.Panels {
		n := len(p.P99)
		fmt.Fprintf(&b, "  %-26s p99 range [%.3g .. %.3g] median %.3g  spread %.1f decades\n",
			p.Feature, p.P99[0], p.P99[n-1], p.P99[n/2], p.SpreadDecades)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Fig 2 — per-user TCP vs UDP fringe comparison

// Fig2Result reproduces Fig 2: each point is one user.
type Fig2Result struct {
	// TCP99 and UDP99 are aligned per-user 99th percentiles.
	TCP99, UDP99 []float64
	// RankCorrelation is the Spearman correlation between the two —
	// well below 1, or the scatter of Fig 2 could not exist.
	RankCorrelation float64
}

// Fig2 computes the per-user (TCP q99, UDP q99) scatter.
func Fig2(e *Enterprise, cfg ExperimentConfig) (*Fig2Result, error) {
	tcp, err := e.TailStats(features.TCP, cfg.TrainWeek, 0.99)
	if err != nil {
		return nil, err
	}
	udp, err := e.TailStats(features.UDP, cfg.TrainWeek, 0.99)
	if err != nil {
		return nil, err
	}
	return &Fig2Result{
		TCP99:           tcp,
		UDP99:           udp,
		RankCorrelation: stats.Spearman(tcp, udp),
	}, nil
}

// String summarizes the scatter.
func (r *Fig2Result) String() string {
	// Count users in the "corners": TCP-heavy/UDP-light and converse.
	te := stats.MustEmpirical(r.TCP99)
	ue := stats.MustEmpirical(r.UDP99)
	tHi, tLo := te.MustQuantile(0.75), te.MustQuantile(0.25)
	uHi, uLo := ue.MustQuantile(0.75), ue.MustQuantile(0.25)
	var tcpHeavyUDPLight, udpHeavyTCPLight int
	for i := range r.TCP99 {
		if r.TCP99[i] >= tHi && r.UDP99[i] <= uLo {
			tcpHeavyUDPLight++
		}
		if r.UDP99[i] >= uHi && r.TCP99[i] <= tLo {
			udpHeavyTCPLight++
		}
	}
	return fmt.Sprintf("Fig 2 — per-user fringe comparison: %d users, Spearman %.2f, "+
		"%d TCP-heavy/UDP-light, %d UDP-heavy/TCP-light\n",
		len(r.TCP99), r.RankCorrelation, tcpHeavyUDPLight, udpHeavyTCPLight)
}

// ---------------------------------------------------------------------------
// Table 2 — best users per alarm type

// Table2Result reproduces Table 2: the identities of the 10 users
// with the lowest thresholds per feature, under full and 8-partial
// diversity, and the cross-feature overlaps.
type Table2Result struct {
	FullUDP, FullTCP       []int
	PartialUDP, PartialTCP []int
	FullOverlap            int
	PartialOverlap         int
}

// Table2 computes the best-user lists from the workspace's memoized
// distributions and cached threshold configurations.
func Table2(e *Enterprise, cfg ExperimentConfig) (*Table2Result, error) {
	ws := e.workspace()
	best := func(f features.Feature, g core.Grouping) ([]int, error) {
		pol := core.Policy{Heuristic: core.Percentile{Q: 0.99}, Grouping: g}
		asn, err := ws.Assignment(f, cfg.TrainWeek, pol, nil, "")
		if err != nil {
			return nil, err
		}
		return asn.BestUsers(10), nil
	}
	res := &Table2Result{}
	var err error
	if res.FullUDP, err = best(features.UDP, core.FullDiversity{}); err != nil {
		return nil, err
	}
	if res.FullTCP, err = best(features.TCP, core.FullDiversity{}); err != nil {
		return nil, err
	}
	if res.PartialUDP, err = best(features.UDP, core.PartialDiversity{NumGroups: 8}); err != nil {
		return nil, err
	}
	if res.PartialTCP, err = best(features.TCP, core.PartialDiversity{NumGroups: 8}); err != nil {
		return nil, err
	}
	res.FullOverlap = core.Overlap(res.FullUDP, res.FullTCP)
	res.PartialOverlap = core.Overlap(res.PartialUDP, res.PartialTCP)
	return res, nil
}

// String renders the table.
func (r *Table2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2 — best users per alarm type (10 lowest thresholds)\n")
	fmt.Fprintf(&b, "  UDP  full-diversity: %v\n", r.FullUDP)
	fmt.Fprintf(&b, "  TCP  full-diversity: %v\n", r.FullTCP)
	fmt.Fprintf(&b, "  UDP  8-partial:      %v\n", r.PartialUDP)
	fmt.Fprintf(&b, "  TCP  8-partial:      %v\n", r.PartialTCP)
	fmt.Fprintf(&b, "  overlap across features: full=%d/10, partial=%d/10\n",
		r.FullOverlap, r.PartialOverlap)
	return b.String()
}

// ---------------------------------------------------------------------------
// shared evaluation plumbing for Fig 3 / Table 3

// sweepOverlay builds the paper's simulated-attack overlay: attacked
// windows carry sizes cycling through the sweep so the per-user FN
// averages across the whole size range. Every 4th window is attacked.
func sweepOverlay(bins int, sweep []float64) []float64 {
	ov := make([]float64, bins)
	k := 0
	for b := 3; b < bins; b += 4 {
		ov[b] = sweep[k%len(sweep)]
		k++
	}
	return ov
}

// configurePolicies returns the memoized threshold assignments of
// several policies on one feature's training week, configured in
// parallel. attack and sweepKey are Workspace.Assignment's.
func configurePolicies(ws *analysis.Workspace, f features.Feature, trainWeek int, pols []core.Policy, attack []float64, sweepKey string) ([]*core.Assignment, error) {
	asns := make([]*core.Assignment, len(pols))
	err := par.ForEachErr(len(pols), 0, func(p int) error {
		asn, err := ws.Assignment(f, trainWeek, pols[p], attack, sweepKey)
		if err != nil {
			return fmt.Errorf("repro: policy %s: %w", pols[p].Name(), err)
		}
		asns[p] = asn
		return nil
	})
	if err != nil {
		return nil, err
	}
	return asns, nil
}

// evalPolicies runs the three grouping policies under one heuristic
// with the standard sweep attack and returns their results in
// Policies order. Results are memoized in the workspace (keyed by
// every parameter that feeds them): the three threshold
// configurations come from the workspace's assignment cache, built in
// parallel, and one Score pass scores all three over the test week,
// extracting each user's test column once.
func evalPolicies(e *Enterprise, cfg ExperimentConfig, h core.Heuristic) ([]*core.EvalResult, error) {
	return evalPoliciesWS(e, cfg, h, true)
}

func evalPoliciesWS(e *Enterprise, cfg ExperimentConfig, h core.Heuristic, withAttack bool) ([]*core.EvalResult, error) {
	ws := e.workspace()
	key := fmt.Sprintf("evalPolicies/%d/%d/%d/%s/%d/%t",
		int(cfg.Feature), cfg.TrainWeek, cfg.TestWeek, h.Name(), cfg.SweepPoints, withAttack)
	v, err := ws.Memo(key, func() (any, error) {
		sweep := ws.Sweep(cfg.Feature, cfg.TrainWeek, cfg.SweepPoints)
		var shared []float64
		if withAttack {
			// Every user has the same bin count, so one overlay serves
			// the whole population.
			shared = sweepOverlay(ws.BinsPerWeek(), sweep)
		}
		asns, err := configurePolicies(ws, cfg.Feature, cfg.TrainWeek, Policies(h), sweep, fmt.Sprintf("sp%d", cfg.SweepPoints))
		if err != nil {
			return nil, err
		}
		jobs := make([]analysis.Scoring, len(asns))
		for p, asn := range asns {
			jobs[p] = analysis.Scoring{Assignment: asn, Overlay: shared}
		}
		return ws.Score(cfg.Feature, cfg.TestWeek, jobs, 0)
	})
	if err != nil {
		return nil, err
	}
	return v.([]*core.EvalResult), nil
}

// ---------------------------------------------------------------------------
// Fig 3(a) — utility boxplots per policy

// Fig3aResult reproduces Fig 3(a): the distribution of per-host
// utilities under the utility-optimal heuristic (w = 0.4) for the
// three policies.
type Fig3aResult struct {
	PolicyNames []string
	Boxplots    []stats.Boxplot
	// Utilities[p][u] is user u's utility under policy p.
	Utilities [][]float64
}

// Fig3a runs the experiment.
func Fig3a(e *Enterprise, cfg ExperimentConfig) (*Fig3aResult, error) {
	results, err := evalPolicies(e, cfg, core.UtilityOptimal{W: cfg.UtilityW})
	if err != nil {
		return nil, err
	}
	res := &Fig3aResult{}
	for i, r := range results {
		res.PolicyNames = append(res.PolicyNames, Policies(core.UtilityOptimal{W: cfg.UtilityW})[i].Name())
		u := r.Utilities(cfg.UtilityW)
		res.Utilities = append(res.Utilities, u)
		bp, err := stats.NewBoxplot(u)
		if err != nil {
			return nil, err
		}
		res.Boxplots = append(res.Boxplots, bp)
	}
	return res, nil
}

// String renders the three boxplots.
func (r *Fig3aResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 3(a) — end-host utility boxplots (utility heuristic, w=0.4)\n")
	for i, name := range r.PolicyNames {
		fmt.Fprintf(&b, "  %-34s %s\n", name, r.Boxplots[i])
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Fig 3(b) — average utility vs w

// Fig3bResult reproduces Fig 3(b): system utility (mean across
// users) as w sweeps 0.1..0.9, per policy.
type Fig3bResult struct {
	W           []float64
	PolicyNames []string
	// Mean[p][k] is the mean utility of policy p at W[k].
	Mean [][]float64
}

// Fig3b runs the experiment. Detectors are configured once with the
// paper's w = 0.4 utility heuristic (the Fig 3a setting); the weight
// then sweeps only in the utility *evaluation*, so each policy's
// curve is linear in w and the curves diverge as w grows exactly
// when the policies' false-negative rates differ — the paper's
// stated mechanism ("when w is increased, the differences in the
// false negative rates is highlighted").
func Fig3b(e *Enterprise, cfg ExperimentConfig) (*Fig3bResult, error) {
	res := &Fig3bResult{}
	for w := 0.1; w < 0.95; w += 0.1 {
		res.W = append(res.W, math.Round(w*10)/10)
	}
	results, err := evalPolicies(e, cfg, core.UtilityOptimal{W: cfg.UtilityW})
	if err != nil {
		return nil, err
	}
	res.Mean = make([][]float64, 3)
	for p, r := range results {
		res.PolicyNames = append(res.PolicyNames, Policies(core.UtilityOptimal{W: cfg.UtilityW})[p].Name())
		for _, w := range res.W {
			res.Mean[p] = append(res.Mean[p], r.MeanUtility(w))
		}
	}
	return res, nil
}

// Gap returns homogeneous-vs-full-diversity utility gaps at the
// lowest and highest w (the quantity that must grow with w).
func (r *Fig3bResult) Gap() (atLowW, atHighW float64) {
	last := len(r.W) - 1
	return r.Mean[1][0] - r.Mean[0][0], r.Mean[1][last] - r.Mean[0][last]
}

// String renders the series.
func (r *Fig3bResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 3(b) — average utility vs weight w\n  w:      ")
	for _, w := range r.W {
		fmt.Fprintf(&b, "%7.1f", w)
	}
	b.WriteByte('\n')
	names := []string{"homog", "fulldiv", "8-part"}
	for p, series := range r.Mean {
		fmt.Fprintf(&b, "  %-8s", names[p])
		for _, v := range series {
			fmt.Fprintf(&b, "%7.3f", v)
		}
		b.WriteByte('\n')
	}
	lo, hi := r.Gap()
	fmt.Fprintf(&b, "  diversity-vs-homogeneous gap: %.3f at w=%.1f -> %.3f at w=%.1f\n",
		lo, r.W[0], hi, r.W[len(r.W)-1])
	return b.String()
}

// ---------------------------------------------------------------------------
// Table 3 — false alarms at the central console

// Table3Result reproduces Table 3: average false alarms per week
// arriving at the console, per heuristic and policy.
type Table3Result struct {
	// Rows: heuristic name -> [homogeneous, full diversity, 8-partial].
	HeuristicNames []string
	Alarms         [][3]int
}

// Table3 runs both heuristic rows (99th percentile and utility
// w=0.4) over the three policies. False alarms are counted on the
// benign test week alone, as the console would see them.
func Table3(e *Enterprise, cfg ExperimentConfig) (*Table3Result, error) {
	res := &Table3Result{}
	for _, h := range []core.Heuristic{
		core.Percentile{Q: 0.99},
		core.UtilityOptimal{W: cfg.UtilityW},
	} {
		results, err := evalPoliciesWS(e, cfg, h, false)
		if err != nil {
			return nil, err
		}
		var row [3]int
		for p, r := range results {
			row[p] = r.TotalFalseAlarms()
		}
		res.HeuristicNames = append(res.HeuristicNames, h.Name())
		res.Alarms = append(res.Alarms, row)
	}
	return res, nil
}

// String renders the table.
func (r *Table3Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3 — false alarms per week at the central console\n")
	fmt.Fprintf(&b, "  %-18s %12s %14s %14s\n", "heuristic", "homogeneous", "full-diversity", "8-partial")
	for i, name := range r.HeuristicNames {
		fmt.Fprintf(&b, "  %-18s %12d %14d %14d\n", name, r.Alarms[i][0], r.Alarms[i][1], r.Alarms[i][2])
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Fig 4(a) — naive attacker detection vs attack size

// Fig4aResult reproduces Fig 4(a): the fraction of users raising an
// alarm during a day-long attack of each size, per policy.
type Fig4aResult struct {
	Sizes       []float64
	PolicyNames []string
	// Fraction[p][k] is the fraction of users alarming under policy p
	// at attack size Sizes[k].
	Fraction [][]float64
}

// Fig4a runs the experiment: for each attack size, a naive attacker
// injects that size into every window of one working day of the test
// week on every host; a user "raises an alarm" if any attacked
// window alarms. Detection is averaged over several attack days.
//
// The sweep is fully incremental: a user alarms at size b exactly
// when its day's maximum window plus b exceeds its threshold (float
// addition is monotone, so the existence check reduces to the
// maximum), and the set of alarming sizes is an up-set whose boundary
// — the user's critical size — is found exactly by probing adjacent
// floats around threshold−max. The per-(policy, day) critical sizes
// of all three policies come from one pass over the test week's day
// views and are sorted and memoized in the workspace, after which every
// (policy, size, day) cell is one binary search over users instead of
// a per-user search over windows.
func Fig4a(e *Enterprise, cfg ExperimentConfig) (*Fig4aResult, error) {
	ws := e.workspace()
	users := ws.Users()
	sweep := ws.Sweep(cfg.Feature, cfg.TrainWeek, cfg.SweepPoints)
	res := &Fig4aResult{Sizes: append([]float64(nil), sweep...)}
	attackDays := []int{1, 2, 3} // Tue, Wed, Thu of the test week

	// The three assignments are cached in the workspace. Percentile
	// heuristics ignore attack magnitudes, so the nil-sweep cache key
	// shares the entries Fig4b and Fig5 configure.
	pols := Policies(core.Percentile{Q: 0.99})
	asns := make([]*core.Assignment, len(pols))
	for p, pol := range pols {
		var err error
		if asns[p], err = ws.Assignment(cfg.Feature, cfg.TrainWeek, pol, nil, ""); err != nil {
			return nil, err
		}
		res.PolicyNames = append(res.PolicyNames, pol.Name())
	}
	// One pass over the test week's day views derives every policy's
	// critical sizes.
	key := fmt.Sprintf("fig4a-crit/%d/%d/%d", int(cfg.Feature), cfg.TrainWeek, cfg.TestWeek)
	v, err := ws.Memo(key, func() (any, error) {
		crits := make([][][]float64, len(asns)) // [policy][day] sorted critical sizes
		for p := range crits {
			crits[p] = make([][]float64, len(attackDays))
			for d := range crits[p] {
				crits[p][d] = make([]float64, users)
			}
		}
		err := ws.StreamShards(0, func(view *analysis.Workspace, lo, hi int) error {
			for u, userDays := range view.DaySorted(cfg.Feature, cfg.TestWeek) {
				for d, day := range attackDays {
					col := userDays[day]
					for p, asn := range asns {
						crits[p][d][lo+u] = minAlarmSize(col[len(col)-1], asn.Thresholds[lo+u])
					}
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		for _, perDay := range crits {
			for _, crit := range perDay {
				sort.Float64s(crit)
			}
		}
		return crits, nil
	})
	if err != nil {
		return nil, err
	}
	crits := v.([][][]float64)

	res.Fraction = make([][]float64, len(crits))
	for p := range crits {
		res.Fraction[p] = make([]float64, len(sweep))
		for k, size := range sweep {
			var total float64
			for d := range attackDays {
				crit := crits[p][d]
				alarming := sort.Search(len(crit), func(i int) bool { return crit[i] > size })
				total += float64(alarming) / float64(users)
			}
			res.Fraction[p][k] = total / float64(len(attackDays))
		}
	}
	return res, nil
}

// minAlarmSize returns the smallest float64 attack size whose
// float-rounded sum with the day's maximum window value max exceeds
// the threshold — the exact boundary of the (monotone) alarming-size
// set, so comparing a size against it agrees with a direct
// max+size > thr check for every size. It binary-searches the
// totally-ordered float space (IEEE addition is monotone in the
// addend), which stays exact and bounded even when the boundary sits
// among denormals or right at thr == max.
func minAlarmSize(max, thr float64) float64 {
	lo, hi := floatOrd(math.Inf(-1)), floatOrd(math.Inf(1))
	for lo < hi {
		mid := lo + (hi-lo)/2
		if max+floatFromOrd(mid) > thr {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return floatFromOrd(lo)
}

// floatOrd maps a float64 to an unsigned key whose integer order
// matches the float order (negatives reversed into the low range).
func floatOrd(f float64) uint64 {
	b := math.Float64bits(f)
	if b&(1<<63) != 0 {
		return ^b
	}
	return b | 1<<63
}

// floatFromOrd inverts floatOrd.
func floatFromOrd(k uint64) float64 {
	if k&(1<<63) != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

// String renders the detection curves.
func (r *Fig4aResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 4(a) — naive attacker: fraction of users alarming vs attack size\n  size:    ")
	for _, s := range r.Sizes {
		fmt.Fprintf(&b, "%8.0f", s)
	}
	b.WriteByte('\n')
	names := []string{"homog", "fulldiv", "8-part"}
	for p, series := range r.Fraction {
		fmt.Fprintf(&b, "  %-8s", names[p])
		for _, v := range series {
			fmt.Fprintf(&b, "%8.3f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Fig 4(b) — resourceful attacker hidden traffic

// Fig4bResult reproduces Fig 4(b): the distribution of per-host
// hidden traffic a mimicry attacker can sustain, per policy.
type Fig4bResult struct {
	PolicyNames []string
	Boxplots    []stats.Boxplot
	// Hidden[p][u] is user u's hidden traffic under policy p.
	Hidden [][]float64
}

// Fig4b runs the experiment: the resourceful attacker profiles each
// host's test-week distribution and sends the largest volume that
// evades detection with probability EvadeProb. One shard pass reads
// each user's test-week distribution once and profiles it against all
// three policies' thresholds.
func Fig4b(e *Enterprise, cfg ExperimentConfig) (*Fig4bResult, error) {
	ws := e.workspace()
	pols := Policies(core.Percentile{Q: 0.99})
	asns := make([]*core.Assignment, len(pols))
	for p, pol := range pols {
		var err error
		if asns[p], err = ws.Assignment(cfg.Feature, cfg.TrainWeek, pol, nil, ""); err != nil {
			return nil, err
		}
	}
	res := &Fig4bResult{Hidden: make([][]float64, len(pols))}
	for p := range res.Hidden {
		res.Hidden[p] = make([]float64, ws.Users())
	}
	err := ws.StreamShards(0, func(view *analysis.Workspace, lo, hi int) error {
		for u, d := range view.Dists(cfg.Feature, cfg.TestWeek) {
			for p, asn := range asns {
				h, err := attack.HiddenTraffic(d, asn.Thresholds[lo+u], cfg.EvadeProb)
				if err != nil {
					return err
				}
				res.Hidden[p][lo+u] = h
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for p, pol := range pols {
		bp, err := stats.NewBoxplot(res.Hidden[p])
		if err != nil {
			return nil, err
		}
		res.PolicyNames = append(res.PolicyNames, pol.Name())
		res.Boxplots = append(res.Boxplots, bp)
	}
	return res, nil
}

// MedianRatio returns median hidden traffic under homogeneous
// divided by that under full diversity — the paper reports ~3×.
func (r *Fig4bResult) MedianRatio() float64 {
	if r.Boxplots[1].Median == 0 {
		return math.Inf(1)
	}
	return r.Boxplots[0].Median / r.Boxplots[1].Median
}

// String renders the three boxplots.
func (r *Fig4bResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 4(b) — resourceful attacker hidden traffic per policy\n")
	for i, name := range r.PolicyNames {
		fmt.Fprintf(&b, "  %-34s %s\n", name, r.Boxplots[i])
	}
	fmt.Fprintf(&b, "  homogeneous/full-diversity median ratio: %.1fx\n", r.MedianRatio())
	return b.String()
}

// ---------------------------------------------------------------------------
// Fig 5 — Storm botnet overlay

// Fig5Point is one user's operating point under a policy.
type Fig5Point struct {
	User          int
	FP            float64
	DetectionRate float64 // 1 − FN
}

// Fig5Result reproduces one panel of Fig 5: the per-user ⟨FP, 1−FN⟩
// scatter for two policies under the Storm overlay on the
// num-distinct-connections feature.
type Fig5Result struct {
	PolicyNames [2]string
	Points      [2][]Fig5Point
}

// fig5Scores returns the memoized Storm scoring both Fig 5 panels read:
// one Score pass over the distinct-connections test week with six
// jobs, the three 99th-percentile policies in Policies order, each
// scored on the clean week (job 2p) and under the Storm overlay (job
// 2p+1). The thresholds come from the workspace's assignment cache.
func fig5Scores(e *Enterprise, cfg ExperimentConfig) ([]*core.EvalResult, error) {
	f := features.Distinct // the paper's Fig 5 feature
	ws := e.workspace()
	bins := ws.BinsPerWeek()
	key := fmt.Sprintf("fig5/%d/%d/%d/%d", cfg.TrainWeek, cfg.TestWeek, bins, cfg.Seed)
	v, err := ws.Memo(key, func() (any, error) {
		bot, err := attack.NewStorm(attack.StormConfig{Bins: bins, BinWidth: ws.BinWidth(), Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		storm := bot.Overlay().Overlay
		asns, err := configurePolicies(ws, f, cfg.TrainWeek, Policies(core.Percentile{Q: 0.99}), nil, "")
		if err != nil {
			return nil, err
		}
		jobs := make([]analysis.Scoring, 0, 2*len(asns))
		for _, asn := range asns {
			jobs = append(jobs, analysis.Scoring{Assignment: asn}, analysis.Scoring{Assignment: asn, Overlay: storm})
		}
		return ws.Score(f, cfg.TestWeek, jobs, 0)
	})
	if err != nil {
		return nil, err
	}
	return v.([]*core.EvalResult), nil
}

// fig5 renders one Fig 5 panel: the two policies at the given
// Policies indices, read off the shared Storm scoring. A user's FP is
// its clean-week false-positive rate; its detection rate is the recall
// under the overlay, in which every window is attacked (the bot never
// sleeps).
func fig5(e *Enterprise, cfg ExperimentConfig, policies [2]int) (*Fig5Result, error) {
	scores, err := fig5Scores(e, cfg)
	if err != nil {
		return nil, err
	}
	pols := Policies(core.Percentile{Q: 0.99})
	res := &Fig5Result{}
	for i, p := range policies {
		clean, storm := scores[2*p], scores[2*p+1]
		res.PolicyNames[i] = pols[p].Name()
		res.Points[i] = make([]Fig5Point, len(clean.Points))
		for u := range clean.Points {
			res.Points[i][u] = Fig5Point{
				User:          u,
				FP:            clean.Points[u].FP,
				DetectionRate: storm.Points[u].Confusion.Recall(),
			}
		}
	}
	return res, nil
}

// Fig5a compares homogeneous vs full diversity under Storm.
func Fig5a(e *Enterprise, cfg ExperimentConfig) (*Fig5Result, error) {
	return fig5(e, cfg, [2]int{0, 1})
}

// Fig5b compares full diversity vs 8-partial under Storm.
func Fig5b(e *Enterprise, cfg ExperimentConfig) (*Fig5Result, error) {
	return fig5(e, cfg, [2]int{1, 2})
}

// Summary reduces one policy's point cloud to the quantities the
// paper discusses: FP-rate quantiles (is the bulk pinned near 1%, or
// scattered?) and the median detection rate.
func (r *Fig5Result) Summary(i int) (fpQ [4]float64, medianDetection float64) {
	fps := make([]float64, 0, len(r.Points[i]))
	det := make([]float64, 0, len(r.Points[i]))
	for _, p := range r.Points[i] {
		fps = append(fps, p.FP)
		det = append(det, p.DetectionRate)
	}
	fpE := stats.MustEmpirical(fps)
	for k, q := range []float64{0.25, 0.5, 0.75, 0.98} {
		fpQ[k] = fpE.MustQuantile(q)
	}
	return fpQ, stats.MustEmpirical(det).MustQuantile(0.5)
}

// String renders both panels' summaries.
func (r *Fig5Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 5 — Storm overlay on %s\n", features.Distinct)
	for i, name := range r.PolicyNames {
		fpQ, det := r.Summary(i)
		fmt.Fprintf(&b, "  %-34s FP q25/q50/q75/q98 = %.4f/%.4f/%.4f/%.4f, median detection %.2f\n",
			name, fpQ[0], fpQ[1], fpQ[2], fpQ[3], det)
	}
	return b.String()
}
