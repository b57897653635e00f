package metrics

import (
	"math"
	"testing"

	"jointstream/internal/rng"
)

// checkQuantiles asserts the StreamingHist contract against the exact
// CDF on one sample: every quantile within BinWidth of the exact
// nearest-rank answer, and exact agreement at the extremes, count, sum.
func checkQuantiles(t *testing.T, name string, xs []float64, h *StreamingHist) {
	t.Helper()
	c, err := NewCDF(xs)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if h.count != uint64(len(xs)) {
		t.Fatalf("%s: count %d != %d", name, h.count, len(xs))
	}
	if h.Min() != c.min() || h.Max() != c.max() {
		t.Fatalf("%s: extremes (%v,%v) != (%v,%v)", name, h.Min(), h.Max(), c.min(), c.max())
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	if math.Abs(h.sum-sum) > 1e-9*math.Max(1, math.Abs(sum)) {
		t.Fatalf("%s: sum %v != %v", name, h.sum, sum)
	}
	tol := h.BinWidth()
	for q := 0.0; q <= 1.0; q += 0.01 {
		exact := c.quantile(q)
		got := h.quantile(q)
		if math.Abs(got-exact) > tol {
			t.Fatalf("%s: Quantile(%.2f) = %v, exact %v, tolerance %v (bin width %v)",
				name, q, got, exact, tol, h.BinWidth())
		}
	}
	if h.quantile(0) != c.quantile(0) || h.quantile(1) != c.quantile(1) {
		t.Fatalf("%s: extreme quantiles not exact", name)
	}
}

// TestStreamingHistQuantileProperty is the headline property test: on
// random samples from several shapes — uniform, exponential (heavy
// tail forces widening), power-of-two spikes, all-equal, single-value
// — every quantile of the sketch is within one (final) bin width of the
// exact CDF.Quantile.
func TestStreamingHistQuantileProperty(t *testing.T) {
	src := rng.New(99)
	shapes := []struct {
		name string
		gen  func(i int) float64
	}{
		{"uniform", func(int) float64 { return src.Float64() * 50 }},
		{"exponential", func(int) float64 { return -10 * math.Log(1-src.Float64()) }},
		{"powers-of-two", func(int) float64 { return math.Pow(2, float64(int(src.Float64()*16))) }},
		{"all-equal", func(int) float64 { return 7.25 }},
		{"bin-edges", func(i int) float64 { return float64(i % 64) }},
		{"tiny-then-huge", func(i int) float64 {
			if i < 900 {
				return src.Float64()
			}
			return 1e6 + src.Float64()*1e5
		}},
	}
	for _, shape := range shapes {
		for _, n := range []int{1, 3, 1000} {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = shape.gen(i)
			}
			h, err := NewStreamingHist(64, 1.0)
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range xs {
				h.Observe(x)
			}
			checkQuantiles(t, shape.name, xs, h)
		}
	}
}

// TestStreamingHistMerge: merging per-shard sketches equals observing
// the concatenated sample — including when the shards widened to
// different bin widths before the merge.
func TestStreamingHistMerge(t *testing.T) {
	src := rng.New(123)
	var all []float64
	merged, err := NewStreamingHist(32, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	scales := []float64{1, 100, 3, 4000} // force unequal widening per shard
	for _, scale := range scales {
		shard, err := NewStreamingHist(32, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			x := src.Float64() * scale
			all = append(all, x)
			shard.Observe(x)
		}
		if err := merged.Merge(shard); err != nil {
			t.Fatal(err)
		}
	}
	checkQuantiles(t, "merged", all, merged)

	direct, err := NewStreamingHist(32, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range all {
		direct.Observe(x)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.95, 0.99, 1} {
		if merged.quantile(q) != direct.quantile(q) {
			t.Fatalf("Quantile(%v): merged %v != direct %v", q, merged.quantile(q), direct.quantile(q))
		}
	}

	other, err := NewStreamingHist(16, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := merged.Merge(other); err == nil {
		t.Fatal("merged sketches with different bin counts")
	}
}

// TestStreamingHistDropsNonPhysical: NaN, ±Inf and negative samples are
// rejected into Dropped without disturbing the sketch.
func TestStreamingHistDropsNonPhysical(t *testing.T) {
	h, err := NewStreamingHist(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	h.Observe(2)
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.001} {
		h.Observe(x)
	}
	if h.Dropped() != 4 {
		t.Fatalf("Dropped = %d, want 4", h.Dropped())
	}
	if h.count != 1 || h.sum != 2 || h.Min() != 2 || h.Max() != 2 {
		t.Fatal("dropped samples disturbed the sketch")
	}
	if h.BinWidth() != 1 {
		t.Fatal("dropped samples widened the bins")
	}
}

// TestStreamingHistEmptyAndValidation pins the empty-sketch conventions
// and constructor guards.
func TestStreamingHistEmptyAndValidation(t *testing.T) {
	h, err := NewStreamingHist(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if h.quantile(0.5) != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.count != 0 {
		t.Fatal("empty sketch should report zeros")
	}
	for _, bad := range []struct {
		bins  int
		width float64
	}{{0, 1}, {3, 1}, {-2, 1}, {4, 0}, {4, -1}, {4, math.NaN()}, {4, math.Inf(1)}} {
		if _, err := NewStreamingHist(bad.bins, bad.width); err == nil {
			t.Fatalf("NewStreamingHist(%d, %v) accepted", bad.bins, bad.width)
		}
	}
}
