package core

import (
	"testing"

	"repro/internal/features"
	"repro/internal/trace"
)

// popSeries extracts train/test series for one feature from a small
// generated population, following the paper's week1-train/week2-test
// methodology.
func popSeries(t testing.TB, users, seed int, f features.Feature) (train, test [][]float64) {
	t.Helper()
	pop := trace.MustPopulation(trace.Config{Users: users, Weeks: 2, Seed: uint64(seed)})
	for _, u := range pop.Users {
		m := u.Series()
		lo0, hi0 := m.WeekRange(0)
		lo1, hi1 := m.WeekRange(1)
		train = append(train, m.ColumnSlice(f, lo0, hi0))
		test = append(test, m.ColumnSlice(f, lo1, hi1))
	}
	return train, test
}

func TestEvaluatePolicyFullDiversityControlsFP(t *testing.T) {
	train, test := popSeries(t, 30, 23, features.TCP)
	res, err := EvaluatePolicy(EvalInput{
		Train:  train,
		Test:   test,
		Policy: Policy{Percentile{0.99}, FullDiversity{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 30 {
		t.Fatalf("%d points", len(res.Points))
	}
	// Thresholds learned on week 1 applied to week 2: FP rates hover
	// near 1% but are NOT exactly 1% (threshold drift, §6.1). Check
	// they are at least bounded sanely for the bulk of users.
	over := 0
	for _, p := range res.Points {
		if p.FP > 0.08 {
			over++
		}
		if p.FN != 0 {
			t.Fatalf("FN nonzero with no attack: %+v", p)
		}
	}
	if over > 3 {
		t.Fatalf("%d of 30 users exceed 8%% FP under own-percentile thresholds", over)
	}
}

func TestEvaluatePolicyDiversityBeatsHomogeneousOnUtility(t *testing.T) {
	// The headline Fig 3 result on generated data, with an attack
	// overlay so FN is meaningful.
	train, test := popSeries(t, 40, 29, features.TCP)
	attack := make([][]float64, len(test))
	for i := range attack {
		attack[i] = make([]float64, len(test[i]))
		for b := range attack[i] {
			if b%7 == 3 { // attack ~14% of windows
				attack[i][b] = 120
			}
		}
	}
	mags := []float64{120}
	run := func(g Grouping) float64 {
		res, err := EvaluatePolicy(EvalInput{
			Train: train, Test: test, Attack: attack,
			AttackMagnitudes: mags,
			Policy:           Policy{Percentile{0.99}, g},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanUtility(0.4)
	}
	homog := run(Homogeneous{})
	div := run(FullDiversity{})
	part := run(PartialDiversity{NumGroups: 8})
	if div <= homog {
		t.Fatalf("diversity utility %g not above homogeneous %g", div, homog)
	}
	if part <= homog {
		t.Fatalf("8-partial utility %g not above homogeneous %g", part, homog)
	}
}

func TestEvaluatePolicyGapGrowsWithW(t *testing.T) {
	// Fig 3(b): the diversity-vs-homogeneous utility gap grows with
	// the false-negative weight w.
	train, test := popSeries(t, 40, 31, features.TCP)
	attack := make([][]float64, len(test))
	for i := range attack {
		attack[i] = make([]float64, len(test[i]))
		for b := range attack[i] {
			if b%5 == 2 {
				attack[i][b] = 80
			}
		}
	}
	input := func(g Grouping) EvalInput {
		return EvalInput{Train: train, Test: test, Attack: attack,
			AttackMagnitudes: []float64{80},
			Policy:           Policy{Percentile{0.99}, g}}
	}
	resH, err := EvaluatePolicy(input(Homogeneous{}))
	if err != nil {
		t.Fatal(err)
	}
	resD, err := EvaluatePolicy(input(FullDiversity{}))
	if err != nil {
		t.Fatal(err)
	}
	gapLow := resD.MeanUtility(0.1) - resH.MeanUtility(0.1)
	gapHigh := resD.MeanUtility(0.9) - resH.MeanUtility(0.9)
	if gapHigh <= gapLow {
		t.Fatalf("gap at w=0.9 (%g) not above gap at w=0.1 (%g)", gapHigh, gapLow)
	}
}

func TestEvaluatePolicyFalseAlarmVolume(t *testing.T) {
	// Table 3's direction: full diversity sends no more false alarms
	// to the console than homogeneous (usually far fewer).
	train, test := popSeries(t, 40, 37, features.TCP)
	run := func(g Grouping) int {
		res, err := EvaluatePolicy(EvalInput{Train: train, Test: test,
			Policy: Policy{Percentile{0.99}, g}})
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalFalseAlarms()
	}
	homog := run(Homogeneous{})
	div := run(FullDiversity{})
	if div > homog {
		t.Fatalf("diversity false alarms %d exceed homogeneous %d", div, homog)
	}
}

func TestEvaluatePolicyErrors(t *testing.T) {
	if _, err := EvaluatePolicy(EvalInput{}); err == nil {
		t.Fatal("empty input accepted")
	}
	train := [][]float64{{1, 2, 3}}
	if _, err := EvaluatePolicy(EvalInput{Train: train, Test: nil,
		Policy: Policy{Percentile{0.99}, Homogeneous{}}}); err == nil {
		t.Fatal("test/train mismatch accepted")
	}
	if _, err := EvaluatePolicy(EvalInput{Train: train, Test: train,
		Attack: [][]float64{{1}, {2}},
		Policy: Policy{Percentile{0.99}, Homogeneous{}}}); err == nil {
		t.Fatal("attack population mismatch accepted")
	}
	if _, err := EvaluatePolicy(EvalInput{Train: [][]float64{{}}, Test: train,
		Policy: Policy{Percentile{0.99}, Homogeneous{}}}); err == nil {
		t.Fatal("empty training series accepted")
	}
	if _, err := EvaluatePolicy(EvalInput{Train: train, Test: [][]float64{{1, 2}},
		Attack: [][]float64{{1}},
		Policy: Policy{Percentile{0.99}, Homogeneous{}}}); err == nil {
		t.Fatal("attack series length mismatch accepted")
	}
}

func TestEvalResultAccessors(t *testing.T) {
	train := [][]float64{{1, 2, 3, 4, 5}, {10, 20, 30, 40, 50}}
	test := [][]float64{{1, 2, 3, 4, 100}, {10, 20, 30, 40, 50}}
	res, err := EvaluatePolicy(EvalInput{Train: train, Test: test,
		Policy: Policy{Percentile{0.99}, FullDiversity{}}})
	if err != nil {
		t.Fatal(err)
	}
	u := res.Utilities(0.4)
	if len(u) != 2 {
		t.Fatalf("utilities: %v", u)
	}
	if res.MeanUtility(0.4) != (u[0]+u[1])/2 {
		t.Fatal("MeanUtility != mean of Utilities")
	}
	// User 0's 100 exceeds its q99 (~5); user 1's 50 exceeds its
	// interpolated q99 (49.6).
	if res.TotalFalseAlarms() != 2 {
		t.Fatalf("false alarms = %d", res.TotalFalseAlarms())
	}
}
