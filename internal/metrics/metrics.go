// Package metrics provides the statistical reductions used by the paper's
// evaluation figures: empirical CDFs for the per-slot
// fairness/rebuffering/energy distributions (Figs. 2, 3, 6, 7), summary
// statistics, and relative-change helpers for the headline
// claims ("RTMA reduces at least 68% rebuffering time", "EMA achieves more
// than 27% energy reduction").
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// CDF is an empirical cumulative distribution over a sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds the empirical CDF of xs (xs is copied). NaNs are rejected.
func NewCDF(xs []float64) (*CDF, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("metrics: empty sample")
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	for _, x := range cp {
		if math.IsNaN(x) {
			return nil, fmt.Errorf("metrics: NaN in sample")
		}
	}
	sort.Float64s(cp)
	return &CDF{sorted: cp}, nil
}

// quantile returns the q-th quantile (0 ≤ q ≤ 1) using the nearest-rank
// method; q outside [0,1] is clamped.
func (c *CDF) quantile(q float64) float64 {
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	i := int(math.Ceil(q*float64(len(c.sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return c.sorted[i]
}

// min returns the smallest sample value.
func (c *CDF) min() float64 { return c.sorted[0] }

// max returns the largest sample value.
func (c *CDF) max() float64 { return c.sorted[len(c.sorted)-1] }

// Points returns (x, P(X≤x)) pairs at k evenly spaced probability levels,
// suitable for plotting or tabulating the CDF curve. k must be ≥ 2.
func (c *CDF) Points(k int) ([]Point, error) {
	if k < 2 {
		return nil, fmt.Errorf("metrics: need at least 2 points, got %d", k)
	}
	pts := make([]Point, k)
	for i := 0; i < k; i++ {
		q := float64(i) / float64(k-1)
		pts[i] = Point{X: c.quantile(q), P: q}
	}
	return pts, nil
}

// Point is one (value, cumulative probability) pair of a CDF curve.
type Point struct {
	X float64
	P float64
}

// Summary holds the usual summary statistics of a sample.
type Summary struct {
	N                   int
	Mean, Std, Min, Max float64
	P50, P90, P99       float64
}

// Summarize computes a Summary; it returns an error for an empty sample.
func Summarize(xs []float64) (Summary, error) {
	c, err := NewCDF(xs)
	if err != nil {
		return Summary{}, err
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	n := float64(len(xs))
	mean := sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0 // numerical guard
	}
	return Summary{
		N:    len(xs),
		Mean: mean,
		Std:  math.Sqrt(variance),
		Min:  c.min(),
		Max:  c.max(),
		P50:  c.quantile(0.5),
		P90:  c.quantile(0.9),
		P99:  c.quantile(0.99),
	}, nil
}

// Reduction returns the relative reduction of got versus baseline as a
// fraction: 0.68 means "got is 68% lower than baseline"; negative values
// mean got exceeds the baseline. A zero baseline with a zero value is a 0
// reduction; a zero baseline with a nonzero value is an error.
func Reduction(baseline, got float64) (float64, error) {
	if baseline == 0 {
		if got == 0 {
			return 0, nil
		}
		return 0, fmt.Errorf("metrics: reduction vs zero baseline (got %v)", got)
	}
	return 1 - got/baseline, nil
}
