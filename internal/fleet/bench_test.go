package fleet

import (
	"testing"
	"time"

	"repro/internal/collab"
	"repro/internal/core"
	"repro/internal/features"
)

// BenchmarkFleetRun250 is one fleet run at the scale and configuration
// of hidsbench's fleet workload (seed 1): 250 agents over the in-memory
// network, two weeks of 15-minute bins, a naive attack on 30% of the
// hosts and a 10% collaborative quorum. The population is built once;
// an iteration is the whole detection loop — connect, upload,
// configure, push, replay and quorum.
func BenchmarkFleetRun250(b *testing.B) { benchFleetRun(b, 250) }

// BenchmarkFleetRun1000 is BenchmarkFleetRun250's configuration at
// 1000 agents, where the console's per-upload bookkeeping is four
// times as many hosts deep. Building its population takes seconds, so
// -short skips it.
func BenchmarkFleetRun1000(b *testing.B) {
	if testing.Short() {
		b.Skip("1000-agent population is slow to build")
	}
	benchFleetRun(b, 1000)
}

// benchFleetRun times whole fleet runs of the given size and reports
// ticks/s: logical clock ticks, one fleet-wide flush round per
// simulated day of the monitored week, per second of run.
func benchFleetRun(b *testing.B, agents int) {
	mats := buildMats(b, agents, 1, 15*time.Minute)
	cfg := Config{
		Users: agents, Matrices: mats,
		Policy: core.Policy{Heuristic: core.Percentile{Q: 0.99}, Grouping: core.PartialDiversity{NumGroups: 8}},
		Attack: &AttackPlan{
			Kind: AttackNaive, Feature: features.TCP, Size: 500,
			FromBin: 24, ToBin: 48, VictimFraction: 0.3, Seed: 1 ^ 0xa77ac4,
		},
		Collab: &collab.Config{QuorumFraction: 0.1},
	}
	ticks := 0
	b.ReportAllocs()
	for b.Loop() {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ticks += res.TestBins / (mats[0].BinsPerWeek() / 7)
	}
	b.ReportMetric(float64(ticks)/b.Elapsed().Seconds(), "ticks/s")
}
