package core

import (
	"fmt"
	"slices"
)

// Grouping partitions a user population into configuration groups
// from a per-user tail statistic (the paper groups on the 99th
// percentile of the feature being configured, §5 "Grouping Users").
// Every user index must appear in exactly one returned group.
type Grouping interface {
	// Name identifies the grouping in reports and wire messages.
	Name() string
	// Groups partitions user indices {0..len(stat)-1}.
	Groups(stat []float64) ([][]int, error)
}

// Homogeneous is the monoculture policy: a single group containing
// every user, mirroring "the current model of operation for most IT
// departments" (§4).
type Homogeneous struct{}

// Name implements Grouping.
func (Homogeneous) Name() string { return "homogeneous" }

// Groups implements Grouping.
func (Homogeneous) Groups(stat []float64) ([][]int, error) {
	if len(stat) == 0 {
		return nil, fmt.Errorf("core: empty population")
	}
	all := make([]int, len(stat))
	for i := range all {
		all[i] = i
	}
	return [][]int{all}, nil
}

// FullDiversity gives every user their own group: each end host
// determines its own threshold from its own traffic (§4).
type FullDiversity struct{}

// Name implements Grouping.
func (FullDiversity) Name() string { return "full-diversity" }

// Groups implements Grouping.
func (FullDiversity) Groups(stat []float64) ([][]int, error) {
	if len(stat) == 0 {
		return nil, fmt.Errorf("core: empty population")
	}
	groups := make([][]int, len(stat))
	for i := range groups {
		groups[i] = []int{i}
	}
	return groups, nil
}

// PartialDiversity is the paper's partial-diversity heuristic (§5):
// split off the top HeavyFraction of users by the tail statistic
// (default 15%, "roughly the knee in the curve"), then subdivide the
// heavy side and the body side into equal-population quantile
// sub-groups. The paper's "8-partial" is Groups: 8 — 4 heavy
// sub-groups + 4 body sub-groups.
type PartialDiversity struct {
	// NumGroups is the total number of groups (>= 2). Half (rounded
	// up) subdivide the heavy users.
	NumGroups int
	// HeavyFraction is the top fraction treated as heavy; zero means
	// the paper's 0.15.
	HeavyFraction float64
}

// Name implements Grouping.
func (p PartialDiversity) Name() string { return fmt.Sprintf("%d-partial", p.NumGroups) }

// Groups implements Grouping.
func (p PartialDiversity) Groups(stat []float64) ([][]int, error) {
	if len(stat) == 0 {
		return nil, fmt.Errorf("core: empty population")
	}
	if p.NumGroups < 2 {
		return nil, fmt.Errorf("core: partial diversity requires >= 2 groups, got %d", p.NumGroups)
	}
	heavyFrac := p.HeavyFraction
	if heavyFrac == 0 {
		heavyFrac = 0.15
	}
	if heavyFrac < 0 || heavyFrac >= 1 {
		return nil, fmt.Errorf("core: heavy fraction %g outside (0, 1)", heavyFrac)
	}
	order := sortedIndices(stat)
	nHeavy := int(float64(len(order)) * heavyFrac)
	if nHeavy < 1 {
		nHeavy = 1
	}
	body := order[:len(order)-nHeavy]
	heavy := order[len(order)-nHeavy:]

	heavySub := p.NumGroups / 2
	if heavySub < 1 {
		heavySub = 1
	}
	bodySub := p.NumGroups - heavySub
	if bodySub < 1 {
		bodySub = 1
	}
	var groups [][]int
	groups = append(groups, quantileSplit(body, bodySub)...)
	groups = append(groups, quantileSplit(heavy, heavySub)...)
	return groups, nil
}

// quantileSplit splits an already-sorted index slice into k
// contiguous, nearly equal-population pieces (dropping empty pieces
// when k exceeds the population).
func quantileSplit(sorted []int, k int) [][]int {
	if len(sorted) == 0 {
		return nil
	}
	if k > len(sorted) {
		k = len(sorted)
	}
	out := make([][]int, 0, k)
	for i := 0; i < k; i++ {
		lo := i * len(sorted) / k
		hi := (i + 1) * len(sorted) / k
		if hi > lo {
			out = append(out, append([]int(nil), sorted[lo:hi]...))
		}
	}
	return out
}

func sortedIndices(stat []float64) []int {
	order := make([]int, len(stat))
	for i := range order {
		order[i] = i
	}
	// A stable sort by plain <, not cmp.Compare: a NaN statistic
	// compares equal to everything, and the insertion-plus-symMerge
	// algorithm (the one sort.SliceStable runs too) decides where it
	// lands, so Table 2's groups do not move.
	slices.SortStableFunc(order, func(a, b int) int {
		switch {
		case stat[a] < stat[b]:
			return -1
		case stat[b] < stat[a]:
			return 1
		}
		return 0
	})
	return order
}

// ValidatePartition checks that groups form an exact partition of
// {0..n-1}; policies call this to fail fast on a buggy Grouping.
func ValidatePartition(groups [][]int, n int) error {
	seen := make([]bool, n)
	count := 0
	for gi, grp := range groups {
		if len(grp) == 0 {
			return fmt.Errorf("core: group %d is empty", gi)
		}
		for _, u := range grp {
			if u < 0 || u >= n {
				return fmt.Errorf("core: group %d contains out-of-range user %d", gi, u)
			}
			if seen[u] {
				return fmt.Errorf("core: user %d appears in multiple groups", u)
			}
			seen[u] = true
			count++
		}
	}
	if count != n {
		return fmt.Errorf("core: groups cover %d of %d users", count, n)
	}
	return nil
}
