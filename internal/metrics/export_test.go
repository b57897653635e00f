package metrics

import (
	"math"
	"sort"
)

// The accessors below have no caller outside the package's tests.

// At returns P(X ≤ x).
func (c *CDF) At(x float64) float64 {
	// First index with value > x.
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// N returns the sample size.
func (c *CDF) N() int { return len(c.sorted) }

// Dropped returns the number of NaN/infinite/negative samples rejected.
func (h *StreamingHist) Dropped() uint64 { return h.dropped }

// Mean returns the exact sample mean (0 for an empty histogram).
func (h *StreamingHist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the exact smallest observed sample (0 when empty).
func (h *StreamingHist) Min() float64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the exact largest observed sample (0 when empty).
func (h *StreamingHist) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// BinWidth returns the current bin width — the live quantile error bound
// is half of it.
func (h *StreamingHist) BinWidth() float64 { return h.width }
