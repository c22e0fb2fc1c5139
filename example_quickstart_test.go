package repro_test

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/stats"
)

// Quickstart: generate a small enterprise, learn per-user thresholds
// on week 1, and compare the monoculture (homogeneous) policy against
// full diversity on week 2 — the paper's core experiment in ~50
// lines.
//
// Run with:
//
//	go test -run '^Example_quickstart$' .
func Example_quickstart() {
	// A 60-user enterprise with two weeks of traffic. Everything is
	// derived from the seed, so this prints the same numbers every
	// time.
	ent, err := repro.NewEnterprise(repro.Options{Users: 60, Weeks: 2, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}

	// Week 1 trains, week 2 tests (the paper's §6.1 methodology),
	// using the num-TCP-connections feature.
	train, test := ent.TrainTest(features.TCP, 0, 1)

	// A simulated additive attack of 150 connections/window hits
	// every 6th window of the test week.
	attack := make([][]float64, len(test))
	for u := range attack {
		attack[u] = make([]float64, len(test[u]))
		for b := 5; b < len(attack[u]); b += 6 {
			attack[u][b] = 150
		}
	}

	for _, pol := range []core.Policy{
		{Heuristic: core.Percentile{Q: 0.99}, Grouping: core.Homogeneous{}},
		{Heuristic: core.Percentile{Q: 0.99}, Grouping: core.FullDiversity{}},
		{Heuristic: core.Percentile{Q: 0.99}, Grouping: core.PartialDiversity{NumGroups: 8}},
	} {
		res, err := core.EvaluatePolicy(core.EvalInput{
			Train:  train,
			Test:   test,
			Attack: attack,
			Policy: pol,
		})
		if err != nil {
			log.Fatal(err)
		}
		bp, err := stats.NewBoxplot(res.Utilities(0.4))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-32s mean utility %.3f  median %.3f  false alarms/week %d\n",
			pol.Name(), res.MeanUtility(0.4), bp.Median, res.TotalFalseAlarms())
	}
	// Output:
	// percentile(99)/homogeneous       mean utility 0.599  median 0.600  false alarms/week 254
	// percentile(99)/full-diversity    mean utility 0.799  median 0.708  false alarms/week 222
	// percentile(99)/8-partial         mean utility 0.771  median 0.625  false alarms/week 200
}
