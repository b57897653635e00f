package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewCDFValidation(t *testing.T) {
	if _, err := NewCDF(nil); err == nil {
		t.Error("empty sample accepted")
	}
	if _, err := NewCDF([]float64{1, math.NaN()}); err == nil {
		t.Error("NaN accepted")
	}
}

func TestCDFAt(t *testing.T) {
	c, err := NewCDF([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {10, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestCDFQuantile(t *testing.T) {
	c, _ := NewCDF([]float64{10, 20, 30, 40, 50})
	cases := []struct{ q, want float64 }{
		{0, 10}, {0.2, 10}, {0.5, 30}, {0.9, 50}, {1, 50}, {-1, 10}, {2, 50},
	}
	for _, tc := range cases {
		if got := c.quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestCDFDoesNotAliasInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	c, _ := NewCDF(xs)
	if xs[0] != 3 {
		t.Error("NewCDF sorted the caller's slice")
	}
	xs[0] = 99
	if c.max() != 3 {
		t.Error("CDF aliased caller slice")
	}
}

func TestCDFMinMaxN(t *testing.T) {
	c, _ := NewCDF([]float64{5, -2, 7})
	if c.min() != -2 || c.max() != 7 || c.N() != 3 {
		t.Errorf("Min/Max/N = %v/%v/%d", c.min(), c.max(), c.N())
	}
}

func TestCDFPoints(t *testing.T) {
	c, _ := NewCDF([]float64{1, 2, 3, 4, 5})
	pts, err := c.Points(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("got %d points", len(pts))
	}
	if pts[0].P != 0 || pts[4].P != 1 {
		t.Error("endpoint probabilities wrong")
	}
	if pts[0].X != 1 || pts[4].X != 5 {
		t.Error("endpoint values wrong")
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X {
			t.Error("CDF points not monotone")
		}
	}
	if _, err := c.Points(1); err == nil {
		t.Error("k=1 accepted")
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 8 {
		t.Errorf("N = %d", s.N)
	}
	if math.Abs(s.Mean-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", s.Mean)
	}
	if math.Abs(s.Std-2) > 1e-12 {
		t.Errorf("Std = %v, want 2", s.Std)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min, s.Max)
	}
	if s.P50 != 4 {
		t.Errorf("P50 = %v, want 4", s.P50)
	}
	if _, err := Summarize(nil); err == nil {
		t.Error("empty sample accepted")
	}
}

func TestReduction(t *testing.T) {
	if r, err := Reduction(100, 32); err != nil || math.Abs(r-0.68) > 1e-12 {
		t.Errorf("Reduction(100,32) = %v, %v", r, err)
	}
	if r, err := Reduction(100, 150); err != nil || math.Abs(r+0.5) > 1e-12 {
		t.Errorf("Reduction(100,150) = %v, %v", r, err)
	}
	if r, err := Reduction(0, 0); err != nil || r != 0 {
		t.Errorf("Reduction(0,0) = %v, %v", r, err)
	}
	if _, err := Reduction(0, 5); err == nil {
		t.Error("zero baseline with nonzero value accepted")
	}
}

// Property: At(Quantile(q)) >= q for all q in (0,1].
func TestCDFQuantileAtConsistencyProperty(t *testing.T) {
	f := func(raw []uint16, qRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		c, err := NewCDF(xs)
		if err != nil {
			return false
		}
		q := (float64(qRaw) + 1) / 256.0
		return c.At(c.quantile(q)) >= q-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
