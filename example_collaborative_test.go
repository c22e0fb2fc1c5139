package repro_test

import (
	"fmt"
	"log"
	"sort"

	"repro"
	"repro/internal/attack"
	"repro/internal/collab"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/stats"
)

// Collaborative: the paper's future-work idea (§5, §7) — users play
// different roles in detection, and high-detection users can inform
// the rest. A Storm bot infects the whole fleet; we compare each
// user's individual detection rate against a fleet-level quorum
// detector whose sentinels are the Table-2 "best users".
//
// Run with:
//
//	go test -run '^Example_collaborative$' .
func Example_collaborative() {
	ent, err := repro.NewEnterprise(repro.Options{Users: 60, Weeks: 2, Seed: 21})
	if err != nil {
		log.Fatal(err)
	}
	f := features.Distinct
	train, test := ent.TrainTest(f, 0, 1)
	dists := make([]*stats.Empirical, len(train))
	for u := range dists {
		if dists[u], err = stats.NewEmpirical(train[u]); err != nil {
			log.Fatal(err)
		}
	}
	asn, err := core.Configure(dists, core.Policy{
		Heuristic: core.Percentile{Q: 0.99}, Grouping: core.FullDiversity{}}, nil)
	if err != nil {
		log.Fatal(err)
	}

	bot, err := attack.NewStorm(attack.StormConfig{Bins: len(test[0]), Seed: 4})
	if err != nil {
		log.Fatal(err)
	}
	overlay := bot.Overlay().Overlay

	// Individual detection rates under full diversity.
	det := make([]float64, len(test))
	for u := range test {
		conf, err := core.Evaluate(test[u], overlay, asn.Thresholds[u])
		if err != nil {
			log.Fatal(err)
		}
		det[u] = conf.Recall()
	}
	sorted := append([]float64(nil), det...)
	sort.Float64s(sorted)
	fmt.Printf("individual Storm detection under full diversity (%d hosts):\n", len(det))
	fmt.Printf("  worst %.2f, median %.2f, best %.2f\n",
		sorted[0], sorted[len(sorted)/2], sorted[len(sorted)-1])

	// Fleet-level quorum detection with sentinel weighting.
	alarms := alarmMatrix(test, overlay, asn.Thresholds)
	attacked := make([]bool, len(overlay))
	for b, v := range overlay {
		attacked[b] = v > 0
	}
	for _, quorum := range []int{3, 5, 10} {
		d, err := collab.New(collab.Config{
			Quorum:         quorum,
			SentinelWeight: 2,
			Sentinels:      asn.BestUsers(10),
		})
		if err != nil {
			log.Fatal(err)
		}
		conf, err := d.Evaluate(alarms, attacked)
		if err != nil {
			log.Fatal(err)
		}
		// False-event rate on the clean week.
		clean := alarmMatrix(test, nil, asn.Thresholds)
		events, err := d.Events(clean)
		if err != nil {
			log.Fatal(err)
		}
		fp := 0
		for _, ev := range events {
			if ev {
				fp++
			}
		}
		fmt.Printf("  quorum %2d: fleet detection %.2f, clean-week false events %d/%d\n",
			quorum, conf.Recall(), fp, len(events))
	}
	fmt.Println("\nlesson: even users whose own thresholds miss the bot are covered")
	fmt.Println("once a handful of well-placed (low-threshold) users raise the alarm.")

	// Output:
	// individual Storm detection under full diversity (60 hosts):
	//   worst 0.21, median 0.65, best 0.97
	//   quorum  3: fleet detection 0.97, clean-week false events 27/672
	//   quorum  5: fleet detection 0.96, clean-week false events 4/672
	//   quorum 10: fleet detection 0.93, clean-week false events 0/672
	//
	// lesson: even users whose own thresholds miss the bot are covered
	// once a handful of well-placed (low-threshold) users raise the alarm.
}

// alarmMatrix marks window b of host u when test[u][b] + overlay[b]
// exceeds the host's threshold; overlay may be nil (no attack).
func alarmMatrix(test [][]float64, overlay, thresholds []float64) [][]bool {
	out := make([][]bool, len(test))
	for u, series := range test {
		out[u] = make([]bool, len(series))
		for b, v := range series {
			if overlay != nil {
				v += overlay[b]
			}
			out[u][b] = v > thresholds[u]
		}
	}
	return out
}
