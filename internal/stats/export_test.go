package stats

import "math"

// StdErr returns the standard error of the mean.
func (s Sample) StdErr() float64 {
	return math.Sqrt(s.Var / float64(s.N))
}

// CI95 returns the normal-approximation 95% confidence half-width of the
// mean (seed counts are small, so this understates slightly versus a t
// interval; the harness treats it as indicative, not inferential).
func (s Sample) CI95() float64 { return 1.96 * s.StdErr() }
