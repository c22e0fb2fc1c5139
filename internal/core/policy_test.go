package core

import (
	"testing"

	"repro/internal/features"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// synthDists builds per-user training distributions with a known
// light/heavy structure: user i has all samples near scale[i].
func synthDists(scales []float64, seed uint64) []*stats.Empirical {
	r := xrand.New(seed)
	out := make([]*stats.Empirical, len(scales))
	for i, s := range scales {
		v := make([]float64, 400)
		for j := range v {
			v[j] = s * r.LogNormal(0, 0.3)
		}
		out[i] = stats.MustEmpirical(v)
	}
	return out
}

func TestConfigureFullDiversityPerUserThresholds(t *testing.T) {
	dists := synthDists([]float64{1, 10, 100, 1000}, 1)
	asn, err := Configure(dists, Policy{Percentile{0.99}, FullDiversity{}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range dists {
		if asn.Thresholds[i] != d.MustQuantile(0.99) {
			t.Fatalf("user %d threshold %g != own q99 %g", i, asn.Thresholds[i], d.MustQuantile(0.99))
		}
	}
	// Thresholds strictly increase with user scale here.
	for i := 1; i < len(dists); i++ {
		if asn.Thresholds[i] <= asn.Thresholds[i-1] {
			t.Fatalf("thresholds not ordered: %v", asn.Thresholds)
		}
	}
}

func TestConfigureHomogeneousSingleThreshold(t *testing.T) {
	dists := synthDists([]float64{1, 10, 100, 1000}, 2)
	asn, err := Configure(dists, Policy{Percentile{0.99}, Homogeneous{}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(asn.Thresholds); i++ {
		if asn.Thresholds[i] != asn.Thresholds[0] {
			t.Fatal("homogeneous thresholds differ across users")
		}
	}
	// The global threshold equals the q99 of the merged distribution.
	merged, _ := mergeSamples(dists)
	if asn.Thresholds[0] != merged.MustQuantile(0.99) {
		t.Fatalf("global threshold %g != merged q99 %g", asn.Thresholds[0], merged.MustQuantile(0.99))
	}
}

func TestConfigureHomogeneousHurtsLightUsers(t *testing.T) {
	// The monoculture pathology (§6.2): the global threshold is far
	// above the light users' own tails.
	scales := []float64{1, 1, 1, 1, 1, 1, 1, 1, 500, 1000}
	dists := synthDists(scales, 3)
	homog, err := Configure(dists, Policy{Percentile{0.99}, Homogeneous{}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	div, err := Configure(dists, Policy{Percentile{0.99}, FullDiversity{}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ { // light users
		if homog.Thresholds[i] < 20*div.Thresholds[i] {
			t.Fatalf("light user %d: homogeneous threshold %g not ≫ own %g",
				i, homog.Thresholds[i], div.Thresholds[i])
		}
	}
}

func TestConfigurePartialDiversityBetweenExtremes(t *testing.T) {
	r := xrand.New(11)
	scales := make([]float64, 60)
	for i := range scales {
		scales[i] = r.LogNormal(2, 1.8)
	}
	dists := synthDists(scales, 4)
	homog, _ := Configure(dists, Policy{Percentile{0.99}, Homogeneous{}}, nil)
	part, err := Configure(dists, Policy{Percentile{0.99}, PartialDiversity{NumGroups: 8}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	div, _ := Configure(dists, Policy{Percentile{0.99}, FullDiversity{}}, nil)
	// Mean absolute log-distance from the user's own (diversity)
	// threshold: partial must sit strictly between homogeneous and
	// full diversity.
	dist := func(asn *Assignment) float64 {
		var s float64
		for i := range dists {
			d := asn.Thresholds[i] / div.Thresholds[i]
			if d < 1 {
				d = 1 / d
			}
			s += d
		}
		return s
	}
	if !(dist(part) < dist(homog)) {
		t.Fatalf("partial thresholds (dist %g) not closer to per-user than homogeneous (dist %g)",
			dist(part), dist(homog))
	}
	if len(part.Groups) != 8 {
		t.Fatalf("%d groups", len(part.Groups))
	}
	// Every user's threshold equals their group's threshold.
	for u := range dists {
		g := part.GroupOf(u)
		if g < 0 || part.Thresholds[u] != part.GroupThreshold[g] {
			t.Fatalf("user %d threshold %g != group %d threshold", u, part.Thresholds[u], g)
		}
	}
}

func TestConfigureErrors(t *testing.T) {
	if _, err := Configure(nil, Policy{Percentile{0.99}, Homogeneous{}}, nil); err == nil {
		t.Fatal("empty population accepted")
	}
	if _, err := Configure([]*stats.Empirical{nil}, Policy{Percentile{0.99}, Homogeneous{}}, nil); err == nil {
		t.Fatal("nil user distribution accepted")
	}
	dists := synthDists([]float64{1, 2}, 5)
	if _, err := Configure(dists, Policy{UtilityOptimal{W: 0.4}, Homogeneous{}}, nil); err == nil {
		t.Fatal("utility heuristic without attack magnitudes accepted")
	}
	if _, err := Configure(dists, Policy{Percentile{0.99}, PartialDiversity{NumGroups: 0}}, nil); err == nil {
		t.Fatal("invalid grouping accepted")
	}
}

func TestBestUsersAndOverlap(t *testing.T) {
	asn := &Assignment{Thresholds: []float64{50, 3, 40, 1, 2, 60}}
	best := asn.BestUsers(3)
	want := []int{3, 4, 1}
	for i := range want {
		if best[i] != want[i] {
			t.Fatalf("BestUsers = %v, want %v", best, want)
		}
	}
	if got := asn.BestUsers(100); len(got) != 6 {
		t.Fatalf("BestUsers(100) length %d", len(got))
	}
	if ov := Overlap([]int{1, 2, 3}, []int{3, 4, 1}); ov != 2 {
		t.Fatalf("Overlap = %d", ov)
	}
	if ov := Overlap(nil, []int{1}); ov != 0 {
		t.Fatalf("Overlap(nil) = %d", ov)
	}
}

// TestBestUsersDifferAcrossFeatures reproduces Table 2's qualitative
// finding on generated data: the 10 lowest-threshold users for TCP
// and for UDP overlap only partially.
func TestBestUsersDifferAcrossFeatures(t *testing.T) {
	if testing.Short() {
		t.Skip("population sweep")
	}
	pop := trace.MustPopulation(trace.Config{Users: 120, Weeks: 1, Seed: 17})
	var tcpD, udpD []*stats.Empirical
	for _, u := range pop.Users {
		m := u.Series()
		td, err := m.Distribution(features.TCP, 0, m.Bins())
		if err != nil {
			t.Fatal(err)
		}
		ud, err := m.Distribution(features.UDP, 0, m.Bins())
		if err != nil {
			t.Fatal(err)
		}
		tcpD = append(tcpD, td)
		udpD = append(udpD, ud)
	}
	pol := Policy{Percentile{0.99}, FullDiversity{}}
	at, err := Configure(tcpD, pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	au, err := Configure(udpD, pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	ov := Overlap(at.BestUsers(10), au.BestUsers(10))
	if ov > 8 {
		t.Fatalf("best-user lists overlap %d/10; expected partial overlap (Table 2)", ov)
	}
}

func TestPolicyName(t *testing.T) {
	p := Policy{Percentile{0.99}, PartialDiversity{NumGroups: 8}}
	if p.Name() != "percentile(99)/8-partial" {
		t.Fatalf("Name = %q", p.Name())
	}
}

func TestGroupOfMissing(t *testing.T) {
	asn := &Assignment{Groups: [][]int{{0}, {1}}}
	if asn.GroupOf(5) != -1 {
		t.Fatal("GroupOf(missing) != -1")
	}
}
