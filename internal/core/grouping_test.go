package core

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func statVector(seed uint64, n int) []float64 {
	r := xrand.New(seed)
	v := make([]float64, n)
	for i := range v {
		v[i] = r.LogNormal(3, 2)
	}
	return v
}

func TestHomogeneousGrouping(t *testing.T) {
	stat := statVector(1, 50)
	groups, err := (Homogeneous{}).Groups(stat)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 1 || len(groups[0]) != 50 {
		t.Fatalf("groups = %d x %d", len(groups), len(groups[0]))
	}
	if err := ValidatePartition(groups, 50); err != nil {
		t.Fatal(err)
	}
}

func TestFullDiversityGrouping(t *testing.T) {
	stat := statVector(2, 30)
	groups, err := (FullDiversity{}).Groups(stat)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 30 {
		t.Fatalf("%d groups", len(groups))
	}
	for i, g := range groups {
		if len(g) != 1 || g[0] != i {
			t.Fatalf("group %d = %v", i, g)
		}
	}
}

func TestPartialDiversityPartition(t *testing.T) {
	stat := statVector(3, 350)
	pd := PartialDiversity{NumGroups: 8}
	groups, err := pd.Groups(stat)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 8 {
		t.Fatalf("%d groups, want 8", len(groups))
	}
	if err := ValidatePartition(groups, 350); err != nil {
		t.Fatal(err)
	}
	if pd.Name() != "8-partial" {
		t.Fatalf("Name = %q", pd.Name())
	}
}

func TestPartialDiversityHeavySplit(t *testing.T) {
	// The top-15% heavy users must be isolated from the body: no
	// group may contain both a bottom-85% and a top-15% user.
	stat := statVector(4, 200)
	groups, err := (PartialDiversity{NumGroups: 8}).Groups(stat)
	if err != nil {
		t.Fatal(err)
	}
	order := sortedIndices(stat)
	nHeavy := 200 * 15 / 100
	heavySet := map[int]bool{}
	for _, u := range order[200-nHeavy:] {
		heavySet[u] = true
	}
	for gi, g := range groups {
		hasHeavy, hasBody := false, false
		for _, u := range g {
			if heavySet[u] {
				hasHeavy = true
			} else {
				hasBody = true
			}
		}
		if hasHeavy && hasBody {
			t.Fatalf("group %d mixes heavy and body users", gi)
		}
	}
}

func TestPartialDiversityGroupsAreContiguousInStat(t *testing.T) {
	// Each group must cover a contiguous range of the sorted tail
	// statistic (quantile split), so group thresholds are meaningful.
	stat := statVector(5, 97)
	groups, err := (PartialDiversity{NumGroups: 5}).Groups(stat)
	if err != nil {
		t.Fatal(err)
	}
	for gi, g := range groups {
		lo, hi := stat[g[0]], stat[g[0]]
		for _, u := range g {
			if stat[u] < lo {
				lo = stat[u]
			}
			if stat[u] > hi {
				hi = stat[u]
			}
		}
		// No user outside the group may fall strictly inside (lo, hi).
		inGroup := map[int]bool{}
		for _, u := range g {
			inGroup[u] = true
		}
		for u, s := range stat {
			if !inGroup[u] && s > lo && s < hi {
				t.Fatalf("group %d range (%g, %g) contains outside user %d (%g)", gi, lo, hi, u, s)
			}
		}
	}
}

func TestPartialDiversitySmallPopulations(t *testing.T) {
	// More groups than users must still produce a valid partition.
	for _, n := range []int{2, 3, 5, 9} {
		stat := statVector(uint64(n), n)
		groups, err := (PartialDiversity{NumGroups: 8}).Groups(stat)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := ValidatePartition(groups, n); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestPartialDiversityErrors(t *testing.T) {
	if _, err := (PartialDiversity{NumGroups: 1}).Groups(statVector(1, 10)); err == nil {
		t.Fatal("1 group accepted")
	}
	if _, err := (PartialDiversity{NumGroups: 4, HeavyFraction: 1.5}).Groups(statVector(1, 10)); err == nil {
		t.Fatal("bad heavy fraction accepted")
	}
	if _, err := (PartialDiversity{NumGroups: 4}).Groups(nil); err == nil {
		t.Fatal("empty population accepted")
	}
}

func TestPartialDiversityProperty(t *testing.T) {
	f := func(seed uint64, nRaw, gRaw uint8) bool {
		n := int(nRaw%120) + 2
		k := int(gRaw%10) + 2
		groups, err := (PartialDiversity{NumGroups: k}).Groups(statVector(seed, n))
		if err != nil {
			return false
		}
		return ValidatePartition(groups, n) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestValidatePartitionRejects(t *testing.T) {
	cases := map[string][][]int{
		"missing user":   {{0, 1}},
		"duplicate user": {{0, 1}, {1, 2}},
		"out of range":   {{0, 1, 2}, {5}},
		"empty group":    {{0, 1, 2}, {}},
	}
	for name, groups := range cases {
		if err := ValidatePartition(groups, 3); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if err := ValidatePartition([][]int{{2, 0}, {1}}, 3); err != nil {
		t.Errorf("valid partition rejected: %v", err)
	}
}

func TestGroupingNames(t *testing.T) {
	for _, g := range []Grouping{Homogeneous{}, FullDiversity{}, PartialDiversity{NumGroups: 8}} {
		if g.Name() == "" {
			t.Errorf("%T has empty name", g)
		}
	}
}
