package rng

import "math"

// This file turns one uniformly distributed 64-bit word into one standard
// normal deviate with the 128-layer ziggurat of Marsaglia & Tsang ("The
// Ziggurat Method for Generating Random Variables", JSS 2000). The normal
// density is covered by 127 horizontal rectangles and a base strip holding
// the tail, all of one common area; a word picks a layer with seven of its bits
// and a signed position inside it with 54 others. In 97.2 % of words the
// position lies under the layer above, where every point is under the
// curve, and the deviate is that position: one table multiply and one
// compare. The rest test the wedge between the two layers against the
// density, or sample the tail beyond zigR by Marsaglia's exponential
// method, and on rejection start over with a fresh word. The result is
// N(0, 1) itself, not an interpolated inverse CDF.
//
// The layer index and the position use disjoint bits (the 32-bit original
// shares them, which Doornik showed is measurable), so the word must be
// well mixed everywhere: a Hash3 or Source.Uint64 output, not a counter.

const (
	// zigR is where the base strip's rectangle ends and the tail begins.
	// Marsaglia & Tsang print it to 13 digits; this is the root to double
	// precision, at which the layer recurrence closes on the density's
	// peak (see the tables' test, which also holds zigV, the layers'
	// common area).
	zigR = 3.442619855896652
	// zigShift leaves the word's top 54 bits as the signed position,
	// |j| ≤ 2⁵³, which float64 holds exactly; zigWn carries the 2⁻⁵³.
	zigShift = 10
)

// Norms stores NormWord(Hash3(a, from+k, c)) in dst[k] for every k: a run
// of one coordinate-addressed noise stream, once per user-slot of every
// link-window fill, so a is mixed in once and NormWord's common case is
// repeated inline in the loop.
func Norms[F ~float64](dst []F, a, from, c uint64) {
	h := mix(a + 0x9E3779B97F4A7C15)
	for k := range dst {
		w := hashRest(h, from+uint64(k), c)
		i, j, mag := zigSplit(w)
		if mag < zigKn[i] {
			dst[k] = F(float64(j) * zigWn[i])
		} else {
			dst[k] = F(NormWord(w))
		}
	}
}

// zigSplit takes a word apart into its layer, its signed position within
// the layer and the position's magnitude.
func zigSplit(w uint64) (i uint64, j int64, mag uint64) {
	j = int64(w) >> zigShift
	sign := j >> 63
	return w & 127, j, uint64((j ^ sign) - sign)
}

// NormWord maps a uniformly distributed word to a standard normal deviate,
// a pure function of w. Coordinate-addressed noise — the stateless sine
// channel, per-site shadowing — hashes its coordinates with Hash3 and
// takes the one deviate that word addresses. The 2.8 % of words that do
// not land inside the layer above their own take their extra uniforms,
// and the fresh word after a rejection, from the SplitMix64 stream seeded
// with w.
func NormWord(w uint64) float64 {
	src := Source{state: w}
	for {
		i, j, mag := zigSplit(w)
		if mag < zigKn[i] {
			return float64(j) * zigWn[i]
		}
		if i == 0 {
			// Base strip, beyond its rectangle: the tail |x| > zigR,
			// signed like the position that fell off the end.
			for {
				x := -math.Log(src.unitOpen()) / zigR
				y := -math.Log(src.unitOpen())
				if y+y >= x*x {
					if j < 0 {
						return -zigR - x
					}
					return zigR + x
				}
			}
		}
		// Wedge of layer i: accept the position if a uniform height
		// between the layer's two edges falls under the density.
		x := float64(j) * zigWn[i]
		above := zigFn[(i-1)&127] // i ≥ 1 here; the mask only tells the compiler
		if zigFn[i]+src.Float64()*(above-zigFn[i]) < math.Exp(-0.5*x*x) {
			return x
		}
		w = src.Uint64()
	}
}

// unitOpen returns a uniform value in (0, 1], safe under a logarithm.
func (s *Source) unitOpen() float64 {
	return float64(s.Uint64()>>11+1) / (1 << 53)
}
