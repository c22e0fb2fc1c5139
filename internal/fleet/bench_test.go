package fleet

import (
	"testing"

	"repro/internal/collab"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/par"
	"repro/internal/trace"
)

// BenchmarkFleetRun250 is one fleet run at the scale and configuration
// of hidsbench's fleet workload (seed 1): 250 agents over the in-memory
// network, two weeks of 5-minute bins, a naive attack on 30% of the
// hosts and a 10% collaborative quorum. The population is built once;
// an iteration is the whole detection loop — connect, upload,
// configure, push, replay and quorum.
func BenchmarkFleetRun250(b *testing.B) {
	const agents = 250
	pop := trace.MustPopulation(trace.Config{Users: agents, Weeks: 2, Seed: 1})
	mats := make([]*features.Matrix, agents)
	par.ForEach(agents, 0, func(u int) { mats[u] = pop.Users[u].Series() })
	cfg := Config{
		Users: agents, Matrices: mats,
		Policy: core.Policy{Heuristic: core.Percentile{Q: 0.99}, Grouping: core.PartialDiversity{NumGroups: 8}},
		Attack: &AttackPlan{
			Kind: AttackNaive, Feature: features.TCP, Size: 500,
			FromBin: 24, ToBin: 48, VictimFraction: 0.3, Seed: 1 ^ 0xa77ac4,
		},
		Collab: &collab.Config{QuorumFraction: 0.1},
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
