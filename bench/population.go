package bench

import (
	"fmt"
	"math"

	"repro/internal/trace"
	"repro/internal/xrand"
)

// Population selection. A user's generation cost in the trace model is
// proportional to its connection rates, which grow exponentially with
// a latent size whose upper tail is exponential: the costs are
// heavy-tailed (tail index below one), so the costliest user of a
// seeded population often outweighs all the others together, and the
// same code takes up to ten times longer to generate, store or scan one
// seed's population than another's. Timings would then measure the
// seed, not the code.
//
// hidsbench therefore runs every seed on a population of typical cost.
// The candidates for a seed are the population seeds an xrand stream
// seeded with it yields; the first candidate in which no user carries
// more than maxUserShare of the total cost weight (trace's CostWeights,
// the expected connections per window), and whose mean cost weight is
// within costBand of typical, is the workload's population. Typical is
// the median mean cost weight of calibrationSize candidates that pass
// the share test, drawn from a fixed stream, so it is the same for
// every seed. Different seeds still get different users.
const (
	maxUserShare    = 0.10
	costBand        = 0.02
	calibrationSize = 15
	calibrationSeed = 0xca11b
	maxCandidates   = 1 << 20
)

// populationSeed returns the population seed of a workload of users
// users for the benchmark seed.
func populationSeed(seed uint64, users int) (uint64, error) {
	typical, err := typicalCost(users)
	if err != nil {
		return 0, err
	}
	src := xrand.New(seed)
	for i := 0; i < maxCandidates; i++ {
		s := src.Uint64()
		mean, ok, err := meanCost(s, users)
		if err != nil {
			return 0, err
		}
		if ok && math.Abs(mean/typical-1) <= costBand {
			return s, nil
		}
	}
	return 0, fmt.Errorf("no population of %d users within %.0f%% of typical cost", users, 100*costBand)
}

// typicalCost is the median mean cost weight of populations of users
// users that pass the share test.
func typicalCost(users int) (float64, error) {
	src := xrand.New(calibrationSeed)
	var means []float64
	for i := 0; i < maxCandidates && len(means) < calibrationSize; i++ {
		mean, ok, err := meanCost(src.Uint64(), users)
		if err != nil {
			return 0, err
		}
		if ok {
			means = append(means, mean)
		}
	}
	if len(means) < calibrationSize {
		return 0, fmt.Errorf("too few populations of %d users pass the share test", users)
	}
	return median(means), nil
}

// meanCost returns the mean cost weight of the population seed
// generates, and whether its costliest user carries at most
// maxUserShare of the total.
func meanCost(seed uint64, users int) (mean float64, ok bool, err error) {
	pop, err := trace.NewPopulation(trace.Config{Users: users, Weeks: weeks, Seed: seed})
	if err != nil {
		return 0, false, err
	}
	total, most := 0.0, 0.0
	for _, w := range pop.CostWeights() {
		total += w
		most = max(most, w)
	}
	return total / float64(users), most <= maxUserShare*total, nil
}
