package core

import (
	"fmt"

	"repro/internal/stats"
)

// Policy is the paper's two-component enterprise configuration policy
// (§4): a threshold-selection heuristic plus a grouping method.
type Policy struct {
	Heuristic Heuristic
	Grouping  Grouping
}

// Name renders "heuristic/grouping".
func (p Policy) Name() string {
	return fmt.Sprintf("%s/%s", p.Heuristic.Name(), p.Grouping.Name())
}

// Assignment is the result of applying a policy to a population for
// one feature: one threshold per user plus the group structure that
// produced it.
type Assignment struct {
	// Thresholds has one entry per user.
	Thresholds []float64
	// Groups is the partition used; Groups[g] lists user indices.
	Groups [][]int
	// GroupThreshold has one entry per group, aligned with Groups.
	GroupThreshold []float64
}

// GroupOf returns the index of the group containing user u, or -1.
func (a *Assignment) GroupOf(u int) int {
	for g, grp := range a.Groups {
		for _, v := range grp {
			if v == u {
				return g
			}
		}
	}
	return -1
}

// Configure applies a policy to per-user training distributions:
//
//  1. A per-user tail statistic (the 99th percentile) is computed to
//     drive the grouping, as in §5.
//  2. The grouping partitions users.
//  3. Within each group, member training distributions are collapsed
//     into one (the homogeneous case merges everyone — "all the
//     individual distributions are collapsed into a single global
//     distribution", §4) and the heuristic extracts the group
//     threshold, which every member receives.
//
// It is a one-shard StreamPlan: a singleton group's threshold comes
// from the member's own distribution, and a larger group's from the
// run-length accumulator its members fold into, so no merged sample
// copy is built. Every threshold is bit-identical to the heuristic over
// the members' samples copied into one slice and sorted.
//
// attack supplies representative attack magnitudes to
// objective-optimizing heuristics; nil is fine for Percentile and
// MeanSigma.
func Configure(train []*stats.Empirical, policy Policy, attack []float64) (*Assignment, error) {
	stat := make([]float64, len(train))
	for i, tr := range train {
		if tr == nil || tr.N() == 0 {
			return nil, fmt.Errorf("core: user %d has no training data", i)
		}
		stat[i] = tr.MustQuantile(0.99)
	}
	plan, err := NewStreamPlan(policy, stat, attack)
	if err != nil {
		return nil, err
	}
	if err := plan.FoldShard(0, train); err != nil {
		return nil, err
	}
	return plan.Finish()
}

// BestUsers returns the indices of the k users with the lowest
// thresholds — the paper's "best users per alarm type" (Table 2):
// low-threshold users can identify small, stealthy anomalies.
// Ties break toward lower user index, matching a stable sort.
func (a *Assignment) BestUsers(k int) []int {
	idx := sortedIndices(a.Thresholds)
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

// Overlap counts how many users appear in both lists (Table 2's
// cross-feature comparison of best-user identities).
func Overlap(a, b []int) int {
	set := make(map[int]struct{}, len(a))
	for _, u := range a {
		set[u] = struct{}{}
	}
	n := 0
	for _, u := range b {
		if _, ok := set[u]; ok {
			n++
		}
	}
	return n
}
