// Package xrand provides a deterministic, seedable random number
// generator and the probability distributions used throughout the
// reproduction: uniform, normal, exponential, Poisson, lognormal,
// Pareto, binomial and Zipf sampling.
//
// The enterprise trace generator must be reproducible bit-for-bit from
// a seed so that every experiment in EXPERIMENTS.md regenerates the
// exact same population. math/rand's global state is unsuitable for
// that (package-level locking, version-dependent streams), so xrand
// implements its own core generator: xoshiro256** seeded through
// SplitMix64, the combination recommended by the xoshiro authors.
//
// All types in this package are NOT safe for concurrent use; create
// one Source per goroutine (Fork gives independent streams).
package xrand

import (
	"fmt"
	"math"
)

// Source is a deterministic pseudo-random source implementing
// xoshiro256**. The zero value is NOT usable; construct with New.
// The four state words are scalar fields (not an array) so Uint64
// stays within the compiler's inlining budget — every sampler's draw
// loop bottoms out there.
type Source struct {
	s0, s1, s2, s3 uint64

	// polar-method cache for NormFloat64
	spare     float64
	haveSpare bool
}

// New returns a Source seeded from seed via SplitMix64, which
// guarantees the four xoshiro words are well mixed even for small or
// highly structured seeds (0, 1, 2, ...).
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// Reseed resets the source to the stream determined by seed.
func (r *Source) Reseed(seed uint64) {
	r.haveSpare = false
	sm := seed
	sm, r.s0 = splitmix64(sm)
	sm, r.s1 = splitmix64(sm)
	sm, r.s2 = splitmix64(sm)
	_, r.s3 = splitmix64(sm)
}

// splitmix64 advances the SplitMix64 state and returns the new state
// and output word.
func splitmix64(state uint64) (next, out uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly distributed bits. The xoshiro
// update is algebraically flattened — each new state word is an
// independent expression over the loaded state — so the four stores
// have no serial dependency chain; every distribution sampler sits in
// a draw loop on top of this.
func (r *Source) Uint64() uint64 {
	s0, s1, s2, s3 := r.s0, r.s1, r.s2, r.s3
	t := s3 ^ s1
	r.s0 = s0 ^ t
	r.s1 = s1 ^ s2 ^ s0
	r.s2 = s2 ^ s0 ^ s1<<17
	r.s3 = t<<45 | t>>19
	x := s1 * 5
	return (x<<7 | x>>57) * 9
}

// Fork returns a new Source whose stream is independent of r's. It is
// implemented with xoshiro's long-jump polynomial, which advances the
// parent by 2^192 steps; up to 2^64 forks have non-overlapping
// subsequences.
func (r *Source) Fork() *Source {
	child := &Source{s0: r.s0, s1: r.s1, s2: r.s2, s3: r.s3}
	r.longJump()
	return child
}

var longJumpPoly = [4]uint64{
	0x76e15d3efefdcbbf, 0xc5004e441c522fb3,
	0x77710069854ee241, 0x39109bb02acbe635,
}

func (r *Source) longJump() {
	var s0, s1, s2, s3 uint64
	for _, jp := range longJumpPoly {
		for b := 0; b < 64; b++ {
			if jp&(1<<uint(b)) != 0 {
				s0 ^= r.s0
				s1 ^= r.s1
				s2 ^= r.s2
				s3 ^= r.s3
			}
			r.Uint64()
		}
	}
	r.s0, r.s1, r.s2, r.s3 = s0, s1, s2, s3
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Threshold53 converts a probability into an integer threshold for
// 53-bit uniforms: for any Source r,
//
//	r.Uint64()>>11 < Threshold53(p)
//
// consumes one draw and decides exactly like r.Float64() < p — the
// 53-bit word m and the quotient m/2^53 are both exact, so the float
// comparison and the integer comparison cut the same set of draws.
// Hot accept/reject loops use this to stay in integer registers (and
// within the compiler's inlining budget, which the two-deep
// Float64→Uint64 call no longer fits).
func Threshold53(p float64) uint64 {
	if !(p > 0) {
		return 0
	}
	if p >= 1 {
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// Float64Open returns a uniform float64 in (0, 1); useful as input to
// inverse-CDF transforms that cannot accept 0.
func (r *Source) Float64Open() float64 {
	for {
		f := r.Float64()
		if f != 0 {
			return f
		}
	}
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
// Lemire's nearly-divisionless bounded sampling is used to avoid
// modulo bias.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("xrand: Intn bound must be positive, got %d", n))
	}
	bound := uint64(n)
	x := r.Uint64()
	hi, lo := mul64(x, bound)
	if lo < bound {
		threshold := (-bound) % bound
		for lo < threshold {
			x = r.Uint64()
			hi, lo = mul64(x, bound)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask32 + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return hi, lo
}

// Perm returns a random permutation of [0, n) using Fisher-Yates.
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// NormFloat64 returns a standard normal variate (mean 0, stddev 1)
// using the Marsaglia polar method. The spare value is cached.
func (r *Source) NormFloat64() float64 {
	if r.haveSpare {
		r.haveSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.haveSpare = true
		return u * f
	}
}

// ExpFloat64 returns an exponential variate with rate 1 (mean 1).
func (r *Source) ExpFloat64() float64 {
	return -math.Log(r.Float64Open())
}
