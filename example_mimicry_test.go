package repro_test

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/stats"
)

// Mimicry: the resourceful-attacker study of §6.2 on a handful of
// hosts. For each host, an attacker that has profiled the machine's
// traffic computes the largest additive volume that evades the
// detector with 90% probability — under the monoculture threshold
// and under the host's own (diversity) threshold — showing how much
// "room" each policy leaves the attacker.
//
// Run with:
//
//	go test -run '^Example_mimicry$' .
func Example_mimicry() {
	ent, err := repro.NewEnterprise(repro.Options{Users: 40, Weeks: 2, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	train, _ := ent.TrainTest(features.TCP, 0, 1)
	dists := make([]*stats.Empirical, len(train))
	for u := range dists {
		if dists[u], err = stats.NewEmpirical(train[u]); err != nil {
			log.Fatal(err)
		}
	}

	homog, err := core.Configure(dists, core.Policy{
		Heuristic: core.Percentile{Q: 0.99}, Grouping: core.Homogeneous{}}, nil)
	if err != nil {
		log.Fatal(err)
	}
	div, err := core.Configure(dists, core.Policy{
		Heuristic: core.Percentile{Q: 0.99}, Grouping: core.FullDiversity{}}, nil)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("resourceful attacker: max hidden traffic per window (evade prob 0.9)")
	fmt.Printf("%-6s %12s %14s %14s %14s\n", "host", "own q99", "T(homog)", "hidden(homog)", "hidden(divers)")
	var hidH, hidD []float64
	for u := 0; u < len(dists); u++ {
		// The attacker profiles the host's own behavior (the paper's
		// strong threat model: monitoring code on the zombie).
		profile := dists[u]
		hHomog, err := attack.HiddenTraffic(profile, homog.Thresholds[u], 0.9)
		if err != nil {
			log.Fatal(err)
		}
		hDiv, err := attack.HiddenTraffic(profile, div.Thresholds[u], 0.9)
		if err != nil {
			log.Fatal(err)
		}
		hidH = append(hidH, hHomog)
		hidD = append(hidD, hDiv)
		if u < 10 {
			fmt.Printf("%-6d %12.1f %14.1f %14.1f %14.1f\n",
				u, div.Thresholds[u], homog.Thresholds[u], hHomog, hDiv)
		}
	}
	bH, _ := stats.NewBoxplot(hidH)
	bD, _ := stats.NewBoxplot(hidD)
	fmt.Printf("...\nmedian hidden traffic: homogeneous %.0f conn/window, "+
		"diversity %.0f (%.1fx reduction; Fig 4b)\n",
		bH.Median, bD.Median, bH.Median/bD.Median)
	fmt.Println("\nlesson: a single enterprise-wide threshold leaves the typical host")
	fmt.Println("with an enormous undetectable budget; per-host thresholds squeeze it")
	fmt.Println("to each host's own fringe (only the heaviest hosts keep any room).")

	// Output:
	// resourceful attacker: max hidden traffic per window (evade prob 0.9)
	// host        own q99       T(homog)  hidden(homog) hidden(divers)
	// 0             379.7          335.0          134.0          178.7
	// 1              10.3          335.0          332.0            7.3
	// 2             416.9          335.0          220.0          301.9
	// 3             124.9          335.0          325.0          114.9
	// 4            1416.7          335.0           90.0         1171.7
	// 5             181.0          335.0          227.0           73.0
	// 6              44.9          335.0          324.0           33.9
	// 7             742.7          335.0          234.0          641.7
	// 8              97.6          335.0          308.0           70.6
	// 9             213.9          335.0          297.0          175.9
	// ...
	// median hidden traffic: homogeneous 294 conn/window, diversity 124 (2.4x reduction; Fig 4b)
	//
	// lesson: a single enterprise-wide threshold leaves the typical host
	// with an enormous undetectable budget; per-host thresholds squeeze it
	// to each host's own fringe (only the heaviest hosts keep any room).
}
