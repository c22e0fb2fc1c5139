package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/stats"
)

// mergeSamples is the merged-copy reference for a group's collapsed
// distribution: every member's samples copied into one slice and
// sorted.
func mergeSamples(members []*stats.Empirical) (*stats.Empirical, error) {
	var merged []float64
	for _, m := range members {
		for i := 0; i < m.N(); i++ {
			merged = append(merged, m.At(i))
		}
	}
	sort.Float64s(merged)
	return stats.NewEmpiricalFromSorted(merged)
}

// configureMerged is the reference Configure: each group's members
// merged into one sorted copy, the heuristic applied to that copy.
// Configure must agree with it bit for bit.
func configureMerged(train []*stats.Empirical, policy Policy, attack []float64) (*Assignment, error) {
	n := len(train)
	if n == 0 {
		return nil, fmt.Errorf("core: empty population")
	}
	stat := make([]float64, n)
	for i, tr := range train {
		if tr == nil || tr.N() == 0 {
			return nil, fmt.Errorf("core: user %d has no training data", i)
		}
		stat[i] = tr.MustQuantile(0.99)
	}
	groups, err := policy.Grouping.Groups(stat)
	if err != nil {
		return nil, fmt.Errorf("core: grouping %s: %w", policy.Grouping.Name(), err)
	}
	if err := ValidatePartition(groups, n); err != nil {
		return nil, err
	}
	asn := &Assignment{
		Thresholds:     make([]float64, n),
		Groups:         groups,
		GroupThreshold: make([]float64, len(groups)),
	}
	for g, grp := range groups {
		members := make([]*stats.Empirical, len(grp))
		for i, u := range grp {
			members[i] = train[u]
		}
		merged, err := mergeSamples(members)
		if err != nil {
			return nil, err
		}
		t, err := policy.Heuristic.Threshold(merged, attack)
		if err != nil {
			return nil, fmt.Errorf("core: heuristic %s on group %d: %w", policy.Heuristic.Name(), g, err)
		}
		asn.GroupThreshold[g] = t
		for _, u := range grp {
			asn.Thresholds[u] = t
		}
	}
	return asn, nil
}

// decadeTrain builds n users with 1–700 samples each over five
// decades of scale: mostly integer counts (heavy ties), some
// continuous columns, some users almost constant.
func decadeTrain(rng *rand.Rand, n int) []*stats.Empirical {
	dists := make([]*stats.Empirical, n)
	for u := range dists {
		col := make([]float64, 1+rng.Intn(700))
		scale := math.Pow(10, float64(rng.Intn(5)))
		kind := rng.Intn(4)
		for i := range col {
			v := rng.ExpFloat64() * scale
			switch kind {
			case 0: // continuous
			case 1: // a handful of distinct values
				v = math.Floor(v / scale * 2)
			default: // window counts
				v = math.Floor(v)
			}
			col[i] = v
		}
		dists[u] = stats.MustEmpirical(col)
	}
	return dists
}

// TestConfigureMatchesMergedOracle pins Configure's accumulator fold
// DeepEqual to the merged-copy reference for every heuristic, on
// random populations of 1–40 members per group.
func TestConfigureMatchesMergedOracle(t *testing.T) {
	attack := []float64{3, 10, 45, 200, 1e3}
	heuristics := []Heuristic{
		Percentile{Q: 0.99},
		Percentile{Q: 0.999},
		MeanSigma{K: 3},
		UtilityOptimal{W: 0.4},
		FMeasureOptimal{},
	}
	groupings := []struct {
		g Grouping
		k int // groups the population is sized for
	}{
		{Homogeneous{}, 1},
		{FullDiversity{}, 1},
		{PartialDiversity{NumGroups: 3}, 3},
		{PartialDiversity{NumGroups: 8}, 8},
	}
	trials := 12
	if testing.Short() {
		trials = 4
	}
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < trials; trial++ {
		for _, gr := range groupings {
			dists := decadeTrain(rng, 1+rng.Intn(40*gr.k))
			for _, h := range heuristics {
				policy := Policy{Heuristic: h, Grouping: gr.g}
				want, err := configureMerged(dists, policy, attack)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Configure(dists, policy, attack)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d %s (%d users): Configure diverges from the merged copy",
						trial, policy.Name(), len(dists))
				}
			}
		}
	}
}

// TestConfigureErrorsMatchOracle pins Configure's error texts to the
// merged-copy reference: a bad heuristic parameter is reported on the
// lowest-indexed group even when that group is merged and a later one
// is a singleton.
func TestConfigureErrorsMatchOracle(t *testing.T) {
	dists := decadeTrain(rand.New(rand.NewSource(4)), 20)
	for _, policy := range []Policy{
		{Percentile{Q: 2}, PartialDiversity{NumGroups: 8}},
		{UtilityOptimal{W: 5}, PartialDiversity{NumGroups: 8}},
		{UtilityOptimal{W: 0.4}, FullDiversity{}},
		{FMeasureOptimal{}, Homogeneous{}},
		{Percentile{Q: 0.99}, PartialDiversity{NumGroups: 0}},
	} {
		_, want := configureMerged(dists, policy, nil)
		_, got := Configure(dists, policy, nil)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Fatalf("%s: err = %v, want %v", policy.Name(), got, want)
		}
	}
	for _, train := range [][]*stats.Empirical{nil, {dists[0], nil}} {
		_, want := configureMerged(train, Policy{Percentile{Q: 0.99}, Homogeneous{}}, nil)
		_, got := Configure(train, Policy{Percentile{Q: 0.99}, Homogeneous{}}, nil)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Fatalf("%d users: err = %v, want %v", len(train), got, want)
		}
	}
}

// fleetTrain builds fleet-scale training columns: users × bins sorted
// window counts, one user in seven heavy.
func fleetTrain(rng *rand.Rand, users, bins int) []*stats.Empirical {
	dists := make([]*stats.Empirical, users)
	for u := range dists {
		scale := 6.0
		if rng.Intn(7) == 0 {
			scale *= 40
		}
		col := make([]float64, bins)
		for i := range col {
			col[i] = math.Floor(rng.ExpFloat64() * scale)
		}
		dists[u] = stats.MustEmpirical(col)
	}
	return dists
}

// TestConfigureAllocatesNoMergedCopy pins the memory property: at fleet
// scale (250 hosts × a week of 15-minute windows) an 8-partial
// configure allocates less than the population's own sample bytes, so
// it cannot be building a merged copy of any sizeable group.
func TestConfigureAllocatesNoMergedCopy(t *testing.T) {
	const users, bins = 250, 672
	dists := fleetTrain(rand.New(rand.NewSource(8)), users, bins)
	policy := Policy{Percentile{Q: 0.99}, PartialDiversity{NumGroups: 8}}
	if _, err := Configure(dists, policy, nil); err != nil { // warm the pools
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Configure(dists, policy, nil); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	budget := uint64(users * bins * 8)
	if got := after.TotalAlloc - before.TotalAlloc; got >= budget {
		t.Fatalf("Configure allocated %d bytes, want < %d (the population's samples)", got, budget)
	}
}

// BenchmarkConfigure250 times one feature's configure at fleet scale:
// 250 hosts × 672 sorted window counts.
func BenchmarkConfigure250(b *testing.B) {
	dists := fleetTrain(rand.New(rand.NewSource(8)), 250, 672)
	for _, bc := range []struct {
		name   string
		policy Policy
	}{
		{"p99/8-partial", Policy{Percentile{Q: 0.99}, PartialDiversity{NumGroups: 8}}},
		{"mean+3σ/homogeneous", Policy{MeanSigma{K: 3}, Homogeneous{}}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Configure(dists, bc.policy, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
