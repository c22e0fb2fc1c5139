package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/features"
	"repro/internal/stats"
)

func TestDetectorAlarm(t *testing.T) {
	d := Detector{Feature: features.TCP, Threshold: 10}
	if d.Alarm(10) {
		t.Error("value == threshold must not alarm (strict exceedance)")
	}
	if !d.Alarm(10.0001) {
		t.Error("value just above threshold must alarm")
	}
	if d.Alarm(0) {
		t.Error("zero alarmed")
	}
}

func TestEvaluateConfusion(t *testing.T) {
	benign := []float64{1, 2, 3, 4, 100}
	attack := []float64{0, 50, 0, 0.5, 0}
	// threshold 10: window1 (2+50=52) TP; window3 (4+0.5) FN;
	// window4 (100) FP; windows 0,2 TN.
	c, err := Evaluate(benign, attack, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := stats.Confusion{TP: 1, FN: 1, FP: 1, TN: 2}
	if c != want {
		t.Fatalf("confusion = %+v, want %+v", c, want)
	}
}

func TestEvaluateNilAttack(t *testing.T) {
	c, err := Evaluate([]float64{1, 20, 3}, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if c.TP != 0 || c.FN != 0 || c.FP != 1 || c.TN != 2 {
		t.Fatalf("confusion = %+v", c)
	}
}

func TestEvaluateLengthMismatch(t *testing.T) {
	if _, err := Evaluate([]float64{1, 2}, []float64{1}, 5); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestEvaluateTotalsProperty(t *testing.T) {
	f := func(seed uint64, thrRaw uint8) bool {
		n := int(seed%97) + 1
		benign := make([]float64, n)
		attack := make([]float64, n)
		x := seed
		for i := range benign {
			x = x*6364136223846793005 + 1442695040888963407
			benign[i] = float64(x % 100)
			x = x*6364136223846793005 + 1442695040888963407
			if x%3 == 0 {
				attack[i] = float64(x % 50)
			}
		}
		c, err := Evaluate(benign, attack, float64(thrRaw))
		return err == nil && c.TP+c.FP+c.TN+c.FN == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOperatingPoint(t *testing.T) {
	o := OperatingPoint{FP: 0.1, FN: 0.4}
	if got := o.Utility(0.4); math.Abs(got-(1-(0.4*0.4+0.6*0.1))) > 1e-12 {
		t.Fatalf("Utility = %g", got)
	}
}
