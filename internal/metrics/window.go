package metrics

import (
	"fmt"
	"math"
)

// WindowedHist is a sliding-window quantile sketch: a ring of
// StreamingHists, one per window, of which the newest is live and the
// rest are frozen snapshots. Observations land in the live window;
// Rotate freezes it and recycles the oldest window's storage for the
// next one. Count/Quantile answer over every retained window, so an
// open-system run can report "p99 rebuffering over the last K windows"
// without ever finalizing the run.
//
// All windows are created with the same (bins, width) parameters, so
// their widths stay power-of-two multiples of each other and Merge can
// never fail on alignment; WindowedHist exploits that to offer
// error-free snapshot accessors. A window is allocated by its first
// sample (nil reads as empty), so a ring that never rotates pays for one
// window; the first rotation of a window with samples allocates the rest,
// so a ring in use allocates nothing after it.
type WindowedHist struct {
	windows []*StreamingHist // nil until the window's first Observe
	bins    int
	width   float64 // initial bin width each fresh window starts from
	head    int     // ring index of the live window
	filled  int     // retained windows, live included (≤ len(windows))
	// scratch backs the allocation-free Quantile path: mergedInto
	// overwrites it with the sliding aggregate on every call, so it never
	// escapes and the open-system tick loop can take window quantiles at
	// zero steady-state allocations. Lazily built on first Quantile.
	scratch *StreamingHist
}

// NewWindowedHist returns a sliding sketch retaining the given number of
// windows (≥ 1), each a StreamingHist with the given bins and width (the
// same validity rules as NewStreamingHist apply).
func NewWindowedHist(windows, bins int, width float64) (*WindowedHist, error) {
	if windows < 1 {
		return nil, fmt.Errorf("metrics: windowed hist needs >= 1 window, got %d", windows)
	}
	if err := checkHistShape(bins, width); err != nil {
		return nil, err
	}
	return &WindowedHist{
		windows: make([]*StreamingHist, windows),
		bins:    bins,
		width:   width,
		filled:  1,
	}, nil
}

// fresh is an empty window; NewWindowedHist vetted the shape.
func (w *WindowedHist) fresh() *StreamingHist {
	h, _ := NewStreamingHist(w.bins, w.width)
	return h
}

// Observe folds one sample into the live window.
func (w *WindowedHist) Observe(x float64) { w.current().Observe(x) }

// Rotate freezes the live window and starts a fresh one, dropping the
// oldest retained window once the ring is full. With a single-window
// ring, Rotate simply resets the sketch.
func (w *WindowedHist) Rotate() {
	if w.windows[w.head] != nil {
		for i, h := range w.windows {
			if h == nil {
				w.windows[i] = w.fresh()
			}
		}
	}
	w.head = (w.head + 1) % len(w.windows)
	if h := w.windows[w.head]; h != nil {
		h.reset(w.width)
	}
	if w.filled < len(w.windows) {
		w.filled++
	}
}

// current returns the live window. The caller must not retain it across
// a Rotate (its storage is recycled).
func (w *WindowedHist) current() *StreamingHist {
	if w.windows[w.head] == nil {
		w.windows[w.head] = w.fresh()
	}
	return w.windows[w.head]
}

// retained returns the k-th window back from the live one (nil if empty).
func (w *WindowedHist) retained(k int) *StreamingHist {
	return w.windows[(w.head-k+len(w.windows))%len(w.windows)]
}

// Quantile returns the q-th quantile over every retained window, with
// the same contract (and error bound) as StreamingHist.quantile on the
// merged sketch. The merge lands in an internal scratch sketch, so
// repeated calls allocate nothing after the first; the value returned
// is identical to merging the windows with StreamingHist.Merge
// (window_test.go pins it, bin-width misalignment included).
func (w *WindowedHist) Quantile(q float64) float64 {
	if w.scratch == nil {
		w.scratch = w.fresh()
	}
	w.mergedInto(w.scratch)
	return w.scratch.quantile(q)
}

// mergedInto overwrites dst with the merge of every retained window —
// the state Merge would build from them — reusing dst's bin storage. The
// incremental Merge loop collapses whichever side is narrower as it
// goes; because bin counts, the count/dropped/sum accumulators and the
// min/max folds are all order-insensitive given the same final width
// (uint64 sums, float adds in the identical window order), collapsing
// dst to the widest retained width up front and then folding each
// window with a shift produces bit-identical bins and counters.
func (w *WindowedHist) mergedInto(dst *StreamingHist) {
	maxW := w.width
	for k := 0; k < w.filled; k++ {
		if h := w.retained(k); h != nil && h.width > maxW {
			maxW = h.width
		}
	}
	dst.reset(w.width)
	for dst.width < maxW {
		dst.width *= 2 // collapsing an empty sketch only widens it
	}
	for k := 0; k < w.filled; k++ {
		if h := w.retained(k); h != nil {
			dst.foldIn(h)
		}
	}
}

// count returns the observed samples across every retained window.
func (w *WindowedHist) count() uint64 {
	var n uint64
	for k := 0; k < w.filled; k++ {
		if h := w.retained(k); h != nil {
			n += h.count
		}
	}
	return n
}

// Clone returns an independent copy of the histogram.
func (h *StreamingHist) Clone() *StreamingHist {
	c := *h
	c.bins = append([]uint64(nil), h.bins...)
	return &c
}

// reset returns the histogram to its freshly-constructed state with the
// given initial width, reusing the bin storage.
func (h *StreamingHist) reset(width float64) {
	for i := range h.bins {
		h.bins[i] = 0
	}
	h.width = width
	h.count = 0
	h.dropped = 0
	h.sum = 0
	h.min = math.Inf(1)
	h.max = math.Inf(-1)
}

// SessionWindow is the sliding window of per-session quality a serving
// engine keeps: each ended session's lifetime rebuffering (seconds) and
// energy (mJ) fold into a pair of WindowedHists that rotate together, so
// quantiles describe recently ended sessions, not an all-time average
// staleness cannot move.
type SessionWindow struct {
	rebuf, energy *WindowedHist
	live, total   int // sessions folded since the last Rotate / ever
}

// NewSessionWindow returns a window retaining the given number of
// rotations, each histogram with the given bins and initial widths (the
// rules of NewWindowedHist apply).
func NewSessionWindow(windows, bins int, rebufWidth, energyWidth float64) (*SessionWindow, error) {
	r, err := NewWindowedHist(windows, bins, rebufWidth)
	if err != nil {
		return nil, err
	}
	e, err := NewWindowedHist(windows, bins, energyWidth)
	if err != nil {
		return nil, err
	}
	return &SessionWindow{rebuf: r, energy: e}, nil
}

// Fold records one ended session's lifetime rebuffering and energy.
func (w *SessionWindow) Fold(rebufSec, energyMJ float64) {
	w.rebuf.Observe(rebufSec)
	w.energy.Observe(energyMJ)
	w.live++
	w.total++
}

// Rotate closes the live window, dropping the oldest retained one.
func (w *SessionWindow) Rotate() {
	w.rebuf.Rotate()
	w.energy.Rotate()
	w.live = 0
}

// Ended counts the sessions folded since the last Rotate, those the
// retained windows hold (rebuffering samples the histogram kept), and
// every session ever folded.
func (w *SessionWindow) Ended() (live, retained, total int) {
	return w.live, int(w.rebuf.count()), w.total
}

// RebufferQuantile is the q-th quantile of lifetime rebuffering over the
// retained windows, 0 while they hold no session.
func (w *SessionWindow) RebufferQuantile(q float64) float64 { return w.rebuf.Quantile(q) }

// EnergyQuantile is the q-th quantile of lifetime energy over the
// retained windows, 0 while they hold no session.
func (w *SessionWindow) EnergyQuantile(q float64) float64 { return w.energy.Quantile(q) }
