package core

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/par"
	"repro/internal/stats"
)

// streamTrain builds a heavy-tail-ish population of training
// distributions: mostly small integer counts with a few heavy users.
func streamTrain(rng *rand.Rand, users int) []*stats.Empirical {
	dists := make([]*stats.Empirical, users)
	for u := range dists {
		n := 20 + rng.Intn(30)
		scale := 1.0
		if rng.Intn(7) == 0 {
			scale = 40
		}
		col := make([]float64, n)
		for i := range col {
			col[i] = math.Floor(rng.ExpFloat64() * 6 * scale)
		}
		sort.Float64s(col)
		dists[u] = stats.MustEmpirical(col)
	}
	return dists
}

// foldPlan runs the full streaming protocol over dists in the given
// user order with the given worker count.
func foldPlan(t *testing.T, policy Policy, dists []*stats.Empirical, attack []float64, order []int, workers int) *Assignment {
	t.Helper()
	stat := make([]float64, len(dists))
	for u, d := range dists {
		stat[u] = d.MustQuantile(0.99)
	}
	plan, err := NewStreamPlan(policy, stat, attack)
	if err != nil {
		t.Fatal(err)
	}
	if err := par.ForEachErr(len(order), workers, func(i int) error {
		u := order[i]
		return plan.FoldUser(u, dists[u])
	}); err != nil {
		t.Fatal(err)
	}
	asn, err := plan.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return asn
}

// TestStreamPlanMatchesConfigure pins the streaming assignment
// DeepEqual to Configure for every policy shape the experiment
// runners use, across fold orders and a parallel fold. Run under
// -race this is also the fold's race guard: workers is forced above 1
// even on single-CPU hosts.
func TestStreamPlanMatchesConfigure(t *testing.T) {
	attack := []float64{3, 10, 45, 200}
	heuristics := []Heuristic{
		Percentile{Q: 0.99},
		UtilityOptimal{W: 0.4},
		FMeasureOptimal{},
	}
	groupings := []Grouping{
		Homogeneous{},
		FullDiversity{},
		PartialDiversity{NumGroups: 4},
	}
	for _, seed := range []int64{53, 87} {
		rng := rand.New(rand.NewSource(seed))
		dists := streamTrain(rng, 37)
		for _, h := range heuristics {
			for _, grp := range groupings {
				policy := Policy{Heuristic: h, Grouping: grp}
				want, err := Configure(dists, policy, attack)
				if err != nil {
					t.Fatalf("%s: %v", policy.Name(), err)
				}
				order := rng.Perm(len(dists))
				for _, workers := range []int{1, 4} {
					got := foldPlan(t, policy, dists, attack, order, workers)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d %s workers=%d: streaming assignment diverges from Configure",
							seed, policy.Name(), workers)
					}
					for i := range got.Thresholds {
						if math.Float64bits(got.Thresholds[i]) != math.Float64bits(want.Thresholds[i]) {
							t.Fatalf("%s: threshold %d bits differ", policy.Name(), i)
						}
					}
				}
			}
		}
	}
}

// TestStreamPlanNoAttack covers the Percentile policies the
// nil-attack runners (Fig4, Table2) build assignments with.
func TestStreamPlanNoAttack(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dists := streamTrain(rng, 21)
	for _, grp := range []Grouping{Homogeneous{}, FullDiversity{}, PartialDiversity{NumGroups: 8}} {
		policy := Policy{Heuristic: Percentile{Q: 0.99}, Grouping: grp}
		want, err := Configure(dists, policy, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := foldPlan(t, policy, dists, nil, rng.Perm(len(dists)), 3)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: nil-attack streaming assignment diverges", policy.Name())
		}
	}
}

func TestStreamPlanErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dists := streamTrain(rng, 8)
	stat := make([]float64, len(dists))
	for u, d := range dists {
		stat[u] = d.MustQuantile(0.99)
	}

	if _, err := NewStreamPlan(Policy{Heuristic: Percentile{Q: 0.99}, Grouping: Homogeneous{}}, nil, nil); err == nil {
		t.Fatal("empty population accepted")
	}

	// MeanSigma streams through merged groups and singletons alike,
	// bit-identical to the merged copy.
	for _, grp := range []Grouping{Homogeneous{}, FullDiversity{}} {
		policy := Policy{Heuristic: MeanSigma{K: 3}, Grouping: grp}
		want, err := configureMerged(dists, policy, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := foldPlan(t, policy, dists, nil, rng.Perm(len(dists)), 2)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: streaming diverges from the merged copy", policy.Name())
		}
	}

	// A scorer without attack magnitudes must fail exactly like the
	// whole-heap path.
	plan, err := NewStreamPlan(Policy{Heuristic: UtilityOptimal{W: 0.4}, Grouping: Homogeneous{}}, stat, nil)
	if err != nil {
		t.Fatal(err)
	}
	for u, d := range dists {
		if err := plan.FoldUser(u, d); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := plan.Finish(); err == nil ||
		!strings.Contains(err.Error(), "requires attack magnitudes") {
		t.Fatalf("scorer without magnitudes: err = %v", err)
	}

	// Finish before the fold completes reports the shortfall.
	plan, err = NewStreamPlan(Policy{Heuristic: Percentile{Q: 0.99}, Grouping: Homogeneous{}}, stat, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.FoldUser(0, dists[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Finish(); err == nil || !strings.Contains(err.Error(), "folded 1 of 8") {
		t.Fatalf("partial fold: err = %v", err)
	}

	// Out-of-range and empty users error rather than corrupt.
	if err := plan.FoldUser(99, dists[0]); err == nil {
		t.Fatal("out-of-range user accepted")
	}
	if err := plan.FoldUser(1, nil); err == nil || !strings.Contains(err.Error(), "no training data") {
		t.Fatalf("nil dist: err = %v", err)
	}
}

// TestStreamPlanFoldShardMatchesConfigure pins the shard-local fold:
// presenting the population as contiguous shards of any size, in any
// shard order and in parallel, yields Configure's assignment.
func TestStreamPlanFoldShardMatchesConfigure(t *testing.T) {
	rng := rand.New(rand.NewSource(87))
	dists := streamTrain(rng, 37)
	stat := make([]float64, len(dists))
	for u, d := range dists {
		stat[u] = d.MustQuantile(0.99)
	}
	attack := []float64{3, 10, 45, 200}
	for _, h := range []Heuristic{Percentile{Q: 0.99}, UtilityOptimal{W: 0.4}} {
		for _, grp := range []Grouping{Homogeneous{}, FullDiversity{}, PartialDiversity{NumGroups: 8}} {
			policy := Policy{Heuristic: h, Grouping: grp}
			want, err := Configure(dists, policy, attack)
			if err != nil {
				t.Fatal(err)
			}
			for _, shard := range []int{1, 5, 16, len(dists)} {
				plan, err := NewStreamPlan(policy, stat, attack)
				if err != nil {
					t.Fatal(err)
				}
				nShards := (len(dists) + shard - 1) / shard
				order := rng.Perm(nShards)
				if err := par.ForEachErr(nShards, 4, func(i int) error {
					lo := order[i] * shard
					return plan.FoldShard(lo, dists[lo:min(lo+shard, len(dists))])
				}); err != nil {
					t.Fatal(err)
				}
				got, err := plan.Finish()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s shard %d: shard fold diverges from Configure", policy.Name(), shard)
				}
			}
		}
	}
}

// TestStreamPlanFoldsEachUserOnce pins "each user exactly once": a
// second fold of a user is rejected with an error naming it, whether it
// comes through FoldUser or an overlapping shard, and a population in
// which one user was presented twice and another never yields an
// error from Finish, not an assignment.
func TestStreamPlanFoldsEachUserOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dists := streamTrain(rng, 8)
	stat := make([]float64, len(dists))
	for u, d := range dists {
		stat[u] = d.MustQuantile(0.99)
	}
	for _, grp := range []Grouping{Homogeneous{}, FullDiversity{}} {
		policy := Policy{Heuristic: Percentile{Q: 0.99}, Grouping: grp}
		plan, err := NewStreamPlan(policy, stat, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.FoldShard(0, dists[:4]); err != nil {
			t.Fatal(err)
		}
		if err := plan.FoldUser(3, dists[3]); err == nil || !strings.Contains(err.Error(), "user 3 folded twice") {
			t.Fatalf("%s: double FoldUser: err = %v", policy.Name(), err)
		}
		if err := plan.FoldShard(2, dists[2:6]); err == nil || !strings.Contains(err.Error(), "user 2 folded twice") {
			t.Fatalf("%s: overlapping FoldShard: err = %v", policy.Name(), err)
		}
		// Users 5..7 arrive; user 4 never does. A rejected shard
		// claims none of its users, so 4 is still missing after a
		// shard whose tail overlaps folded users.
		if err := plan.FoldShard(5, dists[5:]); err != nil {
			t.Fatal(err)
		}
		if err := plan.FoldShard(4, dists[4:7]); err == nil || !strings.Contains(err.Error(), "user 5 folded twice") {
			t.Fatalf("%s: shard over users 4..6 after user 5 was folded: err = %v", policy.Name(), err)
		}
		asn, err := plan.Finish()
		if err == nil || asn != nil || !strings.Contains(err.Error(), "user 4 missing") {
			t.Fatalf("%s: double plus missing fold: asn = %v, err = %v", policy.Name(), asn, err)
		}
	}
}

// FoldUser presents user u's training distribution: FoldShard over a
// one-user shard.
func (p *StreamPlan) FoldUser(u int, dist *stats.Empirical) error {
	return p.FoldShard(u, []*stats.Empirical{dist})
}
