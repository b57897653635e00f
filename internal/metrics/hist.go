package metrics

import (
	"fmt"
	"math"
)

// StreamingHist is a fixed-memory quantile sketch for non-negative
// samples, built for fleet-scale aggregation where retaining every
// per-user value (CDF's approach) would cost O(users) per metric per
// cell. It keeps a fixed number of equal-width bins over [0, ∞): when a
// sample lands beyond the covered range the bin width doubles and
// adjacent bin pairs collapse (nb[k] = b[2k] + b[2k+1]), so memory never
// grows and every historical count stays attributed to a bin that still
// contains it. Quantiles come back as bin midpoints clamped to the
// observed [min, max], which bounds the error against the exact
// nearest-rank CDF.quantile by half the final bin width — the property
// tests in hist_test.go pin exactly that contract.
//
// Exact extremes (min, max), the exact sum and the exact count are
// tracked outside the bins, so Mean(), Min(), Max(), Quantile(0) and
// Quantile(1) carry no discretization error at all.
type StreamingHist struct {
	bins    []uint64
	width   float64 // current bin width; bin k covers [k·width, (k+1)·width)
	count   uint64
	dropped uint64
	sum     float64
	min     float64
	max     float64
}

// NewStreamingHist returns a histogram with the given number of bins and
// initial bin width. bins must be even (width doubling collapses bins in
// pairs) and at least 2; width must be positive and finite. The covered
// range starts at [0, bins·width) and widens automatically; the final
// quantile error bound is width/2 after the last widening, so choose
// width around (expected max / bins) to avoid widening at all.
func NewStreamingHist(bins int, width float64) (*StreamingHist, error) {
	if err := checkHistShape(bins, width); err != nil {
		return nil, err
	}
	return &StreamingHist{
		bins:  make([]uint64, bins),
		width: width,
		min:   math.Inf(1),
		max:   math.Inf(-1),
	}, nil
}

// checkHistShape vets NewStreamingHist's parameters.
func checkHistShape(bins int, width float64) error {
	if bins < 2 || bins%2 != 0 {
		return fmt.Errorf("metrics: streaming hist needs an even bin count >= 2, got %d", bins)
	}
	if !(width > 0) || math.IsInf(width, 1) {
		return fmt.Errorf("metrics: invalid streaming hist bin width %v", width)
	}
	return nil
}

// Observe folds one sample into the histogram. NaN, infinite and
// negative values are not observable physics in this simulator (energies
// and rebuffer times are finite and non-negative by construction), so
// they are counted in Dropped rather than poisoning the sketch.
func (h *StreamingHist) Observe(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
		h.dropped++
		return
	}
	for x >= h.width*float64(len(h.bins)) {
		h.collapse()
	}
	h.bins[int(x/h.width)]++
	h.count++
	h.sum += x
	if x < h.min {
		h.min = x
	}
	if x > h.max {
		h.max = x
	}
}

// collapse doubles the bin width in place: nb[k] = b[2k] + b[2k+1].
// Every count previously in [2k·w, (2k+2)·w) lands in the new bin k
// covering exactly that range, so no sample is ever misattributed.
func (h *StreamingHist) collapse() {
	half := len(h.bins) / 2
	for k := 0; k < half; k++ {
		h.bins[k] = h.bins[2*k] + h.bins[2*k+1]
	}
	for k := half; k < len(h.bins); k++ {
		h.bins[k] = 0
	}
	h.width *= 2
}

// Merge folds other into h. The wider histogram's bin width wins: the
// narrower one is collapsed until the widths match (both started from
// the same NewStreamingHist parameters in any fleet aggregation, so
// widths are always power-of-two multiples of each other and alignment
// terminates). Merging histograms created with different (bins, width)
// parameters is a programming error and returns one.
func (h *StreamingHist) Merge(other *StreamingHist) error {
	if len(h.bins) != len(other.bins) {
		return fmt.Errorf("metrics: merging streaming hists with %d vs %d bins", len(h.bins), len(other.bins))
	}
	ratio := h.width / other.width
	if r := math.Log2(ratio); r != math.Trunc(r) {
		return fmt.Errorf("metrics: merging streaming hists with incommensurable widths %v vs %v", h.width, other.width)
	}
	for h.width < other.width {
		h.collapse()
	}
	// Fold a copy so `other` is left untouched.
	ob, ow := other.bins, other.width
	if ow < h.width {
		tmp := StreamingHist{bins: append([]uint64(nil), ob...), width: ow}
		for tmp.width < h.width {
			tmp.collapse()
		}
		ob = tmp.bins
	}
	for k := range h.bins {
		h.bins[k] += ob[k]
	}
	h.count += other.count
	h.dropped += other.dropped
	h.sum += other.sum
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	return nil
}

// foldIn accumulates other into h without touching other and without
// allocating. It requires other.width ≤ h.width with a power-of-two
// ratio (the WindowedHist invariant): collapsing other's bins down to
// h's width and then adding is the same as adding each of other's bins
// into the target bin k>>shift directly, because bin counts are plain
// uint64 sums. The counter accumulation mirrors Merge exactly.
func (h *StreamingHist) foldIn(other *StreamingHist) {
	shift := 0
	for w := other.width; w < h.width; w *= 2 {
		shift++
	}
	for k, c := range other.bins {
		if c != 0 {
			h.bins[k>>shift] += c
		}
	}
	h.count += other.count
	h.dropped += other.dropped
	h.sum += other.sum
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
}

// quantile returns the q-th quantile by the same nearest-rank convention
// as CDF.quantile (rank ⌈q·n⌉), discretized to the midpoint of the bin
// holding that rank and clamped to the exact observed [min, max]. The
// result therefore differs from the exact sample quantile by at most
// BinWidth()/2 (and is exact at q ≤ 0 and q ≥ 1). An empty histogram
// returns 0.
func (h *StreamingHist) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for k, c := range h.bins {
		cum += c
		if cum >= rank {
			mid := (float64(k) + 0.5) * h.width
			if mid < h.min {
				return h.min
			}
			if mid > h.max {
				return h.max
			}
			return mid
		}
	}
	return h.max
}
