package xrand

import (
	"fmt"
	"math"
)

// Normal returns a normal variate with the given mean and standard
// deviation. It panics if stddev is negative.
func (r *Source) Normal(mean, stddev float64) float64 {
	if stddev < 0 {
		panic(fmt.Sprintf("xrand: Normal stddev must be >= 0, got %g", stddev))
	}
	return mean + stddev*r.NormFloat64()
}

// LogNormal returns a lognormal variate: exp(N(mu, sigma)). mu and
// sigma are the parameters of the underlying normal, so the median of
// the distribution is exp(mu).
func (r *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Exponential returns an exponential variate with the given mean
// (i.e. rate 1/mean). It panics if mean <= 0.
func (r *Source) Exponential(mean float64) float64 {
	if mean <= 0 {
		panic(fmt.Sprintf("xrand: Exponential mean must be > 0, got %g", mean))
	}
	return mean * r.ExpFloat64()
}

// Pareto returns a Pareto (type I) variate with minimum xm and shape
// alpha. Smaller alpha gives heavier tails; alpha <= 1 has infinite
// mean. It panics unless xm > 0 and alpha > 0.
func (r *Source) Pareto(xm, alpha float64) float64 {
	if xm <= 0 || alpha <= 0 {
		panic(fmt.Sprintf("xrand: Pareto requires xm > 0 and alpha > 0, got xm=%g alpha=%g", xm, alpha))
	}
	return xm / math.Pow(r.Float64Open(), 1/alpha)
}

// Poisson returns a Poisson variate with the given mean. For small
// means it uses Knuth's product-of-uniforms method; for large means it
// uses the PTRS transformed-rejection sampler of Hörmann (1993), which
// is exact and O(1). It panics if mean < 0.
func (r *Source) Poisson(mean float64) int {
	switch {
	case mean < 0 || math.IsNaN(mean):
		panic(fmt.Sprintf("xrand: Poisson mean must be >= 0, got %g", mean))
	case mean == 0:
		return 0
	case mean < 30:
		return r.poissonKnuth(mean)
	default:
		return r.poissonPTRS(mean)
	}
}

func (r *Source) poissonKnuth(mean float64) int {
	limit := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		// float64(w)*2^-53 equals Float64's w/2^53 bit for bit (both
		// round the same exact real once); spelled out so the draw
		// inlines.
		p *= float64(r.Uint64()>>11) * (1.0 / (1 << 53))
		if p <= limit {
			return k
		}
		k++
	}
}

// poissonPTRS implements the PTRS algorithm. Valid for mean >= 10.
func (r *Source) poissonPTRS(mean float64) int {
	b := 0.931 + 2.53*math.Sqrt(mean)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	logMean := math.Log(mean)
	for {
		u := float64(r.Uint64()>>11)*(1.0/(1<<53)) - 0.5
		v := float64(r.Uint64()>>11) * (1.0 / (1 << 53))
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + mean + 0.43)
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= k*logMean-mean-logGamma(k+1) {
			return int(k)
		}
	}
}

// logGamma is a thin wrapper around math.Lgamma that discards the
// sign (the argument is always positive here).
func logGamma(x float64) float64 {
	lg, _ := math.Lgamma(x)
	return lg
}

// Binomial returns a binomial variate: the number of successes in n
// independent trials each succeeding with probability p, one uniform
// per trial. The trials compare the raw 53-bit words against an
// integer threshold, which decides identically to the float compare
// (see Threshold53) while keeping the loop free of float conversions
// and calls.
func (r *Source) Binomial(n int, p float64) int {
	if n < 0 || p < 0 || p > 1 {
		panic(fmt.Sprintf("xrand: Binomial requires n >= 0 and p in [0,1], got n=%d p=%g", n, p))
	}
	t := Threshold53(p)
	k := 0
	for i := 0; i < n; i++ {
		if r.Uint64()>>11 < t {
			k++
		}
	}
	return k
}

// Zipf samples from a Zipf distribution over {1, ..., n} with exponent
// s > 0, using rejection-inversion (Hörmann & Derflinger). Rank 1 is
// the most probable.
type Zipf struct {
	src *Source
	zipfCore
}

// zipfCore holds the distribution constants and the per-draw
// rejection-inversion step shared by Zipf (draws transcendentals per
// call) and ZipfRanks (precomputed rank-boundary table). Both must
// produce identical variates from identical uniforms, so the step
// arithmetic lives here in exactly one place.
type zipfCore struct {
	n           float64
	s           float64
	hIntegralX1 float64
	hIntegralN  float64
	threshold   float64
}

func newZipfCore(n int, s float64) zipfCore {
	z := zipfCore{n: float64(n), s: s}
	z.hIntegralX1 = z.hIntegral(1.5) - 1
	z.hIntegralN = z.hIntegral(z.n + 0.5)
	z.threshold = 2 - z.hIntegralInv(z.hIntegral(2.5)-z.h(2))
	return z
}

// step runs one rejection-inversion iteration on the uniform u drawn
// from [hIntegralN, hIntegralX1]: it returns the rank and true on
// acceptance, or false when the draw is rejected and the caller must
// redraw.
func (z *zipfCore) step(u float64) (int, bool) {
	x := z.hIntegralInv(u)
	k := math.Floor(x + 0.5)
	if k < 1 {
		k = 1
	} else if k > z.n {
		k = z.n
	}
	if k-x <= z.threshold || u >= z.hIntegral(k+0.5)-z.h(k) {
		return int(k), true
	}
	return 0, false
}

// NewZipf constructs a Zipf sampler. It panics if n < 1 or s <= 0.
func NewZipf(src *Source, n int, s float64) *Zipf {
	if n < 1 || s <= 0 {
		panic(fmt.Sprintf("xrand: NewZipf requires n >= 1 and s > 0, got n=%d s=%g", n, s))
	}
	return &Zipf{src: src, zipfCore: newZipfCore(n, s)}
}

// Next returns the next Zipf variate in [1, n].
func (z *Zipf) Next() int {
	for {
		u := z.hIntegralN + z.src.Float64()*(z.hIntegralX1-z.hIntegralN)
		if k, ok := z.step(u); ok {
			return k
		}
	}
}

func (z *zipfCore) h(x float64) float64 { return math.Exp(-z.s * math.Log(x)) }

func (z *zipfCore) hIntegral(x float64) float64 {
	logX := math.Log(x)
	return helper2((1-z.s)*logX) * logX
}

func (z *zipfCore) hIntegralInv(x float64) float64 {
	t := x * (1 - z.s)
	if t < -1 {
		t = -1
	}
	return math.Exp(helper1(t) * x)
}

// helper1 computes log1p(x)/x with a series expansion near zero.
func helper1(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Log1p(x) / x
	}
	return 1 - x*(0.5-x*(1.0/3.0-x*0.25))
}

// helper2 computes expm1(x)/x with a series expansion near zero.
func helper2(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Expm1(x) / x
	}
	return 1 + x*0.5*(1+x*(1.0/3.0)*(1+x*0.25))
}
