// Package rng provides a small, fast, deterministic pseudo-random number
// generator used by every stochastic component of the simulator.
//
// Reproducibility is a hard requirement for the experiment harness: the
// same seed must yield bit-identical runs so that paper figures can be
// regenerated and compared across machines. We therefore avoid math/rand's
// historically global, lock-guarded source and hand-roll a SplitMix64
// generator (Steele, Lea & Flood, OOPSLA 2014), which passes BigCrush,
// needs only 64 bits of state, and makes independent per-user streams
// trivial to derive.
package rng

import "math"

// Source is a deterministic SplitMix64 pseudo-random generator.
// The zero value is a valid generator seeded with 0. Source is not safe
// for concurrent use; derive one Source per goroutine with Split.
type Source struct {
	state uint64
	// Cached second Gaussian from the Box–Muller pair.
	gauss    float64
	hasGauss bool
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Split derives an independent child generator from s. The child's stream
// is decorrelated from the parent's by an extra mixing round, so per-user
// generators produced by successive Split calls behave independently.
func (s *Source) Split() *Source {
	return &Source{state: mix(s.Uint64())}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	return mix(s.state)
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	// 53 random mantissa bits, the standard conversion.
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Hash3 mixes three words into one uniformly distributed word with the
// same SplitMix64 finalizer the sequential stream uses. It is the
// stateless counterpart of Source: a pure function of its inputs, so
// callers that need a reproducible draw addressed by coordinates (for
// example, forecast noise keyed by (seed, slot, user)) get determinism
// without carrying generator state. Each word is folded in with the
// golden-ratio increment before mixing so (a,b,c) permutations and
// nearby coordinates decorrelate.
func Hash3(a, b, c uint64) uint64 {
	h := mix(mix(a+0x9E3779B97F4A7C15) ^ (b + 0x9E3779B97F4A7C15))
	return mix(h ^ (c + 0x9E3779B97F4A7C15))
}

// HashFloat3 maps Hash3 onto a uniform float in [0, 1), with the same
// 53-bit conversion Float64 uses.
func HashFloat3(a, b, c uint64) float64 {
	return float64(Hash3(a, b, c)>>11) / (1 << 53)
}

// Uniform returns a uniform value in [lo, hi). It panics if hi < lo.
func (s *Source) Uniform(lo, hi float64) float64 {
	if hi < lo {
		panic("rng: Uniform with hi < lo")
	}
	return lo + (hi-lo)*s.Float64()
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation would be faster, but
	// modulo bias at n << 2^64 is far below anything observable here.
	return int(s.Uint64() % uint64(n))
}

// Norm returns a standard normal deviate (mean 0, stddev 1) using the
// Box–Muller transform; the second value of each pair is cached. The pair
// comes from one math.Sincos, which TestSincosMatchesSinAndCos holds to
// math.Sin and math.Cos bit for bit — the stream is pinned
// (TestNormStreamGolden).
func (s *Source) Norm() float64 {
	if s.hasGauss {
		s.hasGauss = false
		return s.gauss
	}
	var u1 float64
	for u1 == 0 { // avoid log(0)
		u1 = s.Float64()
	}
	u2 := s.Float64()
	r := math.Sqrt(-2 * math.Log(u1))
	sin, cos := math.Sincos(2 * math.Pi * u2)
	s.gauss = r * sin
	s.hasGauss = true
	return r * cos
}

// Gaussian returns a normal deviate with the given mean and stddev.
func (s *Source) Gaussian(mean, stddev float64) float64 {
	return mean + stddev*s.Norm()
}

// Exp returns an exponentially distributed value with the given rate
// parameter lambda (mean 1/lambda). It panics if lambda <= 0.
func (s *Source) Exp(lambda float64) float64 {
	if lambda <= 0 {
		panic("rng: Exp with non-positive lambda")
	}
	var u float64
	for u == 0 {
		u = s.Float64()
	}
	return -math.Log(u) / lambda
}

// Bool returns true with probability p (clamped to [0,1]).
func (s *Source) Bool(p float64) bool {
	return s.Float64() < p
}

// Perm returns a pseudo-random permutation of [0, n) via Fisher–Yates.
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
