package metrics

import (
	"math"
	"math/rand"
	"testing"
)

// histsEqual reports whether two StreamingHists hold identical state.
func histsEqual(a, b *StreamingHist) bool {
	if a.width != b.width || a.count != b.count || a.dropped != b.dropped ||
		a.sum != b.sum || a.min != b.min || a.max != b.max {
		return false
	}
	for i := range a.bins {
		if a.bins[i] != b.bins[i] {
			return false
		}
	}
	return true
}

// merged is the sliding aggregate built the plain way, StreamingHist.Merge
// over every retained window from the live one back: the reference
// mergedInto's collapse-up-front merge must reproduce.
func merged(w *WindowedHist) *StreamingHist {
	out := w.fresh()
	for k := 0; k < w.filled; k++ {
		if h := w.retained(k); h != nil {
			if err := out.Merge(h); err != nil {
				panic(err)
			}
		}
	}
	return out
}

// Window merge must equal a direct StreamingHist fed the same samples:
// the windowed sketch adds rotation bookkeeping but no statistical
// difference while every sample is still retained.
func TestWindowedHistMergeMatchesDirect(t *testing.T) {
	const windows, bins = 4, 64
	w, err := NewWindowedHist(windows, bins, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := NewStreamingHist(bins, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var all []float64
	// 3 rotations: all samples still retained in the 4-window ring.
	for rot := 0; rot < windows-1; rot++ {
		for i := 0; i < 500; i++ {
			x := rng.ExpFloat64() * 12
			w.Observe(x)
			direct.Observe(x)
			all = append(all, x)
		}
		if rot < windows-2 {
			w.Rotate()
		}
	}
	m := merged(w)
	if !histsEqual(m, direct) {
		t.Fatalf("merged windowed hist != direct hist over same samples: merged{count=%d sum=%v width=%v} direct{count=%d sum=%v width=%v}",
			m.count, m.sum, m.BinWidth(), direct.count, direct.sum, direct.BinWidth())
	}
	if got, want := w.count(), uint64(len(all)); got != want {
		t.Fatalf("windowed count = %d, want %d", got, want)
	}
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
		if got, want := w.Quantile(q), direct.quantile(q); got != want {
			t.Fatalf("q=%v: windowed %v != direct %v", q, got, want)
		}
	}
}

// Across rotations (including evictions of the oldest window) the merged
// quantile must stay within BinWidth of the exact nearest-rank quantile
// of the retained samples — the same bound StreamingHist guarantees,
// surviving the per-window width divergence that rotation can introduce.
func TestWindowedHistQuantileErrorAcrossRotation(t *testing.T) {
	const windows, bins, perWindow = 3, 32, 400
	w, err := NewWindowedHist(windows, bins, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	var ring [][]float64
	for rot := 0; rot < 10; rot++ {
		if rot > 0 {
			w.Rotate()
		}
		var cur []float64
		for i := 0; i < perWindow; i++ {
			// Scale drifts per rotation so late windows force widening
			// while early retained windows keep the narrow width.
			x := rng.Float64() * 8 * float64(1+rot%4)
			w.Observe(x)
			cur = append(cur, x)
		}
		ring = append(ring, cur)
		if len(ring) > windows {
			ring = ring[1:]
		}
		var retained []float64
		for _, win := range ring {
			retained = append(retained, win...)
		}
		cdf, err := NewCDF(retained)
		if err != nil {
			t.Fatal(err)
		}
		m := merged(w)
		bound := m.BinWidth()
		for _, q := range []float64{0.01, 0.25, 0.5, 0.75, 0.9, 0.99} {
			got, want := m.quantile(q), cdf.quantile(q)
			if math.Abs(got-want) > bound {
				t.Fatalf("rotation %d q=%v: |%v - %v| > bin width %v", rot, q, got, want, bound)
			}
		}
		if got, want := m.quantile(0), cdf.min(); got != want {
			t.Fatalf("rotation %d: min %v != %v", rot, got, want)
		}
		if got, want := m.quantile(1), cdf.max(); got != want {
			t.Fatalf("rotation %d: max %v != %v", rot, got, want)
		}
		if got, want := w.count(), uint64(len(retained)); got != want {
			t.Fatalf("rotation %d: count %d != %d", rot, got, want)
		}
	}
	if w.filled != windows {
		t.Fatalf("retained = %d, want %d", w.filled, windows)
	}
}

// Rotation must actually evict: once a window leaves the ring its
// samples disappear from the merged view, and the recycled storage
// starts from the initial width again.
func TestWindowedHistEviction(t *testing.T) {
	w, err := NewWindowedHist(2, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	w.Observe(1000) // forces widening in window 0
	w.Rotate()
	w.Observe(1)
	w.Rotate() // evicts the widened window
	w.Observe(2)
	if got := w.count(); got != 2 {
		t.Fatalf("count after eviction = %d, want 2", got)
	}
	m := merged(w)
	if m.Max() != 2 || m.Min() != 1 {
		t.Fatalf("merged extremes = [%v, %v], want [1, 2]", m.Min(), m.Max())
	}
	if w.current().BinWidth() != 1 {
		t.Fatalf("recycled window width = %v, want initial width 1", w.current().BinWidth())
	}

	// A ring that never observes holds no window, and rotating it is free.
	idle, err := NewWindowedHist(4, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, idle.Rotate); allocs != 0 {
		t.Fatalf("rotating an untouched window allocates %v times", allocs)
	}
	if idle.count() != 0 || idle.Quantile(0.5) != 0 || merged(idle).count != 0 {
		t.Fatal("an idle ring reports samples")
	}
	// One that observes but never rotates holds only its live window; the
	// first rotation of a window with samples allocates the rest, and the
	// ring allocates nothing after it.
	idle.Observe(3)
	if allocated(idle) != 1 {
		t.Fatalf("%d windows allocated before the first rotation, want 1", allocated(idle))
	}
	idle.Rotate()
	if allocated(idle) != 4 {
		t.Fatalf("%d windows allocated after a used window rotated, want 4", allocated(idle))
	}
	if allocs := testing.AllocsPerRun(100, func() { idle.Observe(5); idle.Rotate() }); allocs != 0 {
		t.Fatalf("a ring in use allocates %v times a rotation", allocs)
	}
}

// allocated counts the ring's windows that hold a StreamingHist.
func allocated(w *WindowedHist) int {
	n := 0
	for _, h := range w.windows {
		if h != nil {
			n++
		}
	}
	return n
}

func TestWindowedHistValidation(t *testing.T) {
	if _, err := NewWindowedHist(0, 8, 1); err == nil {
		t.Fatal("want error for 0 windows")
	}
	if _, err := NewWindowedHist(2, 3, 1); err == nil {
		t.Fatal("want error for odd bins")
	}
	if _, err := NewWindowedHist(2, 8, 0); err == nil {
		t.Fatal("want error for zero width")
	}
}

func TestStreamingHistClone(t *testing.T) {
	h, err := NewStreamingHist(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	h.Observe(3)
	c := h.Clone()
	c.Observe(5)
	if h.count != 1 || c.count != 2 {
		t.Fatalf("clone aliases parent: parent count %d, clone count %d", h.count, c.count)
	}
	if !histsEqual(h.Clone(), h) {
		t.Fatal("clone not equal to source")
	}
}

// The scratch-backed Quantile must be bit-identical to the allocating
// Merge-built Quantile path even when the retained windows have diverged
// bin widths: one window stays at the initial width, one collapses far
// wider, one lands in between, and rotation keeps shifting which is
// which. mergedInto's collapse-up-front strategy differs structurally
// from Merge's incremental collapsing, so this pins their equivalence —
// sketch state included — across every misalignment the ring can reach.
// Some windows observe nothing (scale 0): the ring starts with windows
// never allocated, and later holds recycled empty ones. An eager twin,
// whose every live window is allocated, must agree on every answer.
func TestWindowedHistQuantileMisalignedWidths(t *testing.T) {
	const windows, bins = 3, 8
	w, err := NewWindowedHist(windows, bins, 1)
	if err != nil {
		t.Fatal(err)
	}
	eager, err := NewWindowedHist(windows, bins, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Per-rotation sample scales: ×1 keeps the initial width, ×100 forces
	// several collapses, ×10 lands between. Cycling the scales rotates
	// which retained window is widest, narrowest and in the middle.
	scales := []float64{0, 1, 100, 0, 0, 10, 100, 1, 0, 10, 1000, 1, 0}
	qs := []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 1}
	for r, scale := range scales {
		eager.current()
		for i := 0; i < 23 && scale != 0; i++ {
			w.Observe(scale * float64(i%7+1) / 3)
			eager.Observe(scale * float64(i%7+1) / 3)
		}
		if w.count() != eager.count() || !histsEqual(merged(w), merged(eager)) {
			t.Fatalf("rotation %d: lazy ring (count %d) != eager ring (count %d)", r, w.count(), eager.count())
		}
		for _, q := range qs {
			if got, want := w.Quantile(q), eager.Quantile(q); got != want {
				t.Fatalf("rotation %d q=%v: lazy Quantile %v != eager %v", r, q, got, want)
			}
			want := merged(w).quantile(q)
			got := w.Quantile(q)
			if got != want {
				t.Fatalf("rotation %d q=%v: scratch Quantile %v != merged(w).Quantile %v", r, q, got, want)
			}
		}
		// The scratch sketch itself must equal the merged sketch, not just
		// agree at the probed quantiles.
		if !histsEqual(w.scratch, merged(w)) {
			t.Fatalf("rotation %d: scratch state diverged from merged(w)", r)
		}
		w.Rotate()
		eager.Rotate()
	}
	// An empty live window over non-empty frozen ones (right after a
	// rotation) exercises the min=+Inf/max=-Inf copy path.
	if got, want := w.Quantile(0.5), merged(w).quantile(0.5); got != want {
		t.Fatalf("post-rotation q=0.5: %v != %v", got, want)
	}
}

// SessionWindow's three counts follow its rotations: live resets, the
// retained count forgets the oldest window once the ring wraps, and the
// total never forgets; the quantiles answer over the retained windows.
func TestSessionWindowCounts(t *testing.T) {
	w, err := NewSessionWindow(2, 64, 0.25, 50)
	if err != nil {
		t.Fatal(err)
	}
	if r, e := w.RebufferQuantile(0.5), w.EnergyQuantile(0.5); r != 0 || e != 0 {
		t.Fatalf("empty window quantiles %v, %v; want 0", r, e)
	}
	want := func(live, retained, total int) {
		t.Helper()
		if l, r, tot := w.Ended(); l != live || r != retained || tot != total {
			t.Fatalf("Ended() = %d, %d, %d; want %d, %d, %d", l, r, tot, live, retained, total)
		}
	}
	w.Fold(1, 100)
	w.Fold(3, 300)
	want(2, 2, 2)
	w.Rotate()
	w.Fold(9, 900)
	want(1, 3, 3)
	if got := w.EnergyQuantile(1); got < 900 {
		t.Errorf("max energy quantile %v, want the 900 mJ session", got)
	}
	w.Rotate() // the two-window ring drops the first window
	want(0, 1, 3)
	if got := w.RebufferQuantile(0); got < 9 {
		t.Errorf("min rebuffer quantile %v after the first window left, want 9", got)
	}
}
