package repro

// Equivalence guard for the incremental attack sweeps: Fig 4a's
// binary-search day counting and Fig 5's sorted benign/attacked
// decomposition must reproduce the pre-frontier window-by-window
// walks bit for bit. The references below re-implement the old loops
// verbatim against the raw test columns.

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/features"
)

// refFig4a is the pre-frontier Fig 4a inner loop: for every (policy,
// size, day, user), walk every window of the attacked day.
func refFig4a(t *testing.T, e *Enterprise, cfg ExperimentConfig) *Fig4aResult {
	t.Helper()
	ws := e.workspace()
	test := ws.Raw(cfg.Feature, cfg.TestWeek)
	sweep := ws.Sweep(cfg.Feature, cfg.TrainWeek, cfg.SweepPoints)
	res := &Fig4aResult{Sizes: append([]float64(nil), sweep...)}
	binsPerDay := ws.BinsPerWeek() / 7
	var assigns []*core.Assignment
	for _, pol := range Policies(core.Percentile{Q: 0.99}) {
		asn, err := ws.Assignment(cfg.Feature, cfg.TrainWeek, pol, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		res.PolicyNames = append(res.PolicyNames, pol.Name())
		assigns = append(assigns, asn)
	}
	attackDays := []int{1, 2, 3}
	res.Fraction = make([][]float64, len(assigns))
	for p, asn := range assigns {
		res.Fraction[p] = make([]float64, len(sweep))
		for k, size := range sweep {
			var total float64
			for _, day := range attackDays {
				alarming := 0
				for u := range test {
					from := day * binsPerDay
					to := from + binsPerDay
					detected := false
					for b := from; b < to && !detected; b++ {
						if test[u][b]+size > asn.Thresholds[u] {
							detected = true
						}
					}
					if detected {
						alarming++
					}
				}
				total += float64(alarming) / float64(len(test))
			}
			res.Fraction[p][k] = total / float64(len(attackDays))
		}
	}
	return res
}

// refFig5 is the pre-frontier fig5 inner loop: two full core.Evaluate
// walks over the test week per user and policy.
func refFig5(t *testing.T, e *Enterprise, cfg ExperimentConfig, groupings [2]core.Grouping) *Fig5Result {
	t.Helper()
	f := features.Distinct
	ws := e.workspace()
	test := ws.Raw(f, cfg.TestWeek)
	bins := ws.BinsPerWeek()
	ov, err := ws.Memo(fmt.Sprintf("storm/%d/%d", bins, cfg.Seed), func() (any, error) {
		bot, err := attack.NewStorm(attack.StormConfig{
			Bins: bins, BinWidth: ws.BinWidth(), Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		return bot.Overlay().Overlay, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	overlay := ov.([]float64)
	res := &Fig5Result{}
	for i, g := range groupings {
		pol := core.Policy{Heuristic: core.Percentile{Q: 0.99}, Grouping: g}
		asn, err := ws.Assignment(f, cfg.TrainWeek, pol, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		res.PolicyNames[i] = pol.Name()
		res.Points[i] = make([]Fig5Point, len(test))
		for u := range test {
			fpConf, err := core.Evaluate(test[u], nil, asn.Thresholds[u])
			if err != nil {
				t.Fatal(err)
			}
			fnConf, err := core.Evaluate(test[u], overlay, asn.Thresholds[u])
			if err != nil {
				t.Fatal(err)
			}
			res.Points[i][u] = Fig5Point{
				User:          u,
				FP:            fpConf.FalsePositiveRate(),
				DetectionRate: fnConf.Recall(),
			}
		}
	}
	return res
}

func TestFig4aMatchesSeedComputation(t *testing.T) {
	e := equivEnterprise(t)
	cfg := DefaultExperimentConfig()
	got, err := Fig4a(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := refFig4a(t, e, cfg)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Fig4a diverges from the window-walk computation")
	}
	if got.String() != want.String() {
		t.Fatal("Fig4a rendering diverges from the window-walk computation")
	}
}

func TestFig5MatchesSeedComputation(t *testing.T) {
	e := equivEnterprise(t)
	cfg := DefaultExperimentConfig()
	for name, groupings := range map[string][2]core.Grouping{
		"5a": {core.Homogeneous{}, core.FullDiversity{}},
		"5b": {core.FullDiversity{}, core.PartialDiversity{NumGroups: 8}},
	} {
		var got *Fig5Result
		var err error
		if name == "5a" {
			got, err = Fig5a(e, cfg)
		} else {
			got, err = Fig5b(e, cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		want := refFig5(t, e, cfg, groupings)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Fig%s diverges from the window-walk computation", name)
		}
		if got.String() != want.String() {
			t.Fatalf("Fig%s rendering diverges from the window-walk computation", name)
		}
	}
}

// TestFig3aFrontierVsUncachedConfigure additionally pins the
// workspace's folded frontier-heuristic assignments against a plain
// whole-population Configure on the same memoized distributions.
func TestFig3aFrontierVsUncachedConfigure(t *testing.T) {
	e := equivEnterprise(t)
	cfg := DefaultExperimentConfig()
	ws := e.workspace()
	sweep := ws.Sweep(cfg.Feature, cfg.TrainWeek, cfg.SweepPoints)
	sweepKey := fmt.Sprintf("sp%d", cfg.SweepPoints)
	for _, h := range []core.Heuristic{
		core.UtilityOptimal{W: cfg.UtilityW},
		core.FMeasureOptimal{},
	} {
		for _, pol := range Policies(h) {
			cached, err := ws.Assignment(cfg.Feature, cfg.TrainWeek, pol, sweep, sweepKey)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := core.Configure(ws.Dists(cfg.Feature, cfg.TrainWeek), pol, sweep)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cached.Thresholds, plain.Thresholds) {
				t.Fatalf("%s: cached-frontier thresholds diverge from plain Configure", pol.Name())
			}
		}
	}
}
