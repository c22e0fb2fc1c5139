package collab

import (
	"math/rand"
	"testing"
)

// BenchmarkCollabEvaluate scores one week of collaborative quorum at
// the fleet benchmark's shape, scaled to 1000 hosts: 672 windows, a
// 1% background alarm rate (a 99th-percentile threshold's false
// positives), and an attack on windows [24, 48) that 30% of the hosts
// alarm on, under a 10% quorum. It reports alerts/s: alarm marks
// consumed per second.
func BenchmarkCollabEvaluate(b *testing.B) {
	const hosts, bins = 1000, 672
	rng := rand.New(rand.NewSource(1))
	alarms := make([][]bool, hosts)
	attacked := make([]bool, bins)
	for w := 24; w < 48; w++ {
		attacked[w] = true
	}
	alerts := 0
	for u := range alarms {
		alarms[u] = make([]bool, bins)
		victim := rng.Float64() < 0.3
		for w := range alarms[u] {
			alarms[u][w] = rng.Float64() < 0.01 || (victim && attacked[w])
			if alarms[u][w] {
				alerts++
			}
		}
	}
	d, err := New(Config{QuorumFraction: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := d.Evaluate(alarms, attacked); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(alerts)*float64(b.N)/b.Elapsed().Seconds(), "alerts/s")
}
