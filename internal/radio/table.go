package radio

import (
	"fmt"
	"math"

	"jointstream/internal/units"
)

// Table is a compiled, quantized lookup table over a bounded dBm domain
// that evaluates both Eq. (24) curves — throughput v(sig) and per-byte
// energy P(sig) — without interface dispatch. The domain [Lo, Hi] is cut
// into equal-width bins; each bin carries affine coefficients for v, and
// the power curve is either replayed through the exact FittedPower
// formula (p = base + scale/v) or chord-approximated per bin.
//
// Exactness: when the model's curves are the paper's fits
// (LinearThroughput and FittedPower over a LinearThroughput), every bin
// would carry the fit's own coefficients, so the table keeps that one set
// and Lookup evaluates the identical floating-point expressions without
// consulting the quantizer: bitwise-identical to the analytic model at
// every signal value — in the domain, outside it, ±Inf or NaN — not
// merely close; the exact field records this. For other model shapes
// the bins hold sampled chords and the table is an approximation whose
// error shrinks with the bin count; Link, the evaluator every engine
// derives through, only consults a Table when it is exact, falling back
// to direct model calls otherwise, so quantization error can never leak
// into simulation results.
type Table struct {
	lo, hi float64 // domain bounds, dBm
	invW   float64 // bins / (hi - lo); 0 for a degenerate single-point domain
	bins   int
	// exact: Lookup is bitwise-identical to the source model (true for
	// the paper's LinearThroughput + FittedPower fits).
	exact bool

	// The coefficient slices hold one entry per bin, or a single entry
	// when the table is exact (4 096 copies of one fit were 128 KB per
	// table and a cache miss per lookup, for nothing).

	// Throughput: v = tSlope[k]·sig + tIntercept[k], floored at tFloor.
	tSlope, tIntercept []float64
	tFloor             float64

	// Power. fitted selects the exact FittedPower replay path: the power
	// model's own throughput curve w = vSlope[k]·sig + vIntercept[k]
	// (floored at vFloor), then p = pBase + pScale/w floored at zero.
	// Otherwise p = pSlope[k]·sig + pIntercept[k], floored at zero.
	fitted             bool
	pBase, pScale      float64
	vSlope, vIntercept []float64
	vFloor             float64
	pSlope, pIntercept []float64
}

// NewTable compiles m into a quantized table of `bins` equal-width bins
// over the signal domain [lo, hi]. Signals outside the domain are served
// by the edge bins' coefficients (exact for affine models, edge-chord
// extrapolation otherwise).
func NewTable(m Model, lo, hi units.DBm, bins int) (*Table, error) {
	if m.Throughput == nil || m.Power == nil {
		return nil, fmt.Errorf("radio: table needs a fully specified model")
	}
	if bins <= 0 {
		return nil, fmt.Errorf("radio: non-positive bin count %d", bins)
	}
	flo, fhi := float64(lo), float64(hi)
	if math.IsNaN(flo) || math.IsNaN(fhi) || fhi < flo {
		return nil, fmt.Errorf("radio: invalid table domain [%v, %v]", lo, hi)
	}
	t := &Table{lo: flo, hi: fhi, bins: bins, tFloor: math.Inf(-1)}
	if fhi > flo {
		t.invW = float64(bins) / (fhi - flo)
	}

	thr, thrExact := m.Throughput.(LinearThroughput)
	fp, _ := m.Power.(FittedPower)
	pv, powExact := fp.V.(LinearThroughput)
	t.exact = thrExact && powExact
	n := bins
	if t.exact {
		n = 1
	}
	uniform := func(v float64) []float64 {
		xs := make([]float64, n)
		for k := range xs {
			xs[k] = v
		}
		return xs
	}

	if thrExact {
		t.tFloor = float64(thr.MinRate)
		t.tSlope, t.tIntercept = uniform(thr.Slope), uniform(thr.Intercept)
	} else {
		t.tSlope, t.tIntercept = make([]float64, n), make([]float64, n)
		fillChords(t.tSlope, t.tIntercept, flo, fhi, bins, func(x float64) float64 {
			return float64(m.Throughput.Throughput(units.DBm(x)))
		})
	}
	if powExact {
		t.fitted = true
		t.pBase, t.pScale = fp.Base, fp.Scale
		t.vFloor = float64(pv.MinRate)
		t.vSlope, t.vIntercept = uniform(pv.Slope), uniform(pv.Intercept)
	} else {
		t.pSlope, t.pIntercept = make([]float64, n), make([]float64, n)
		fillChords(t.pSlope, t.pIntercept, flo, fhi, bins, func(x float64) float64 {
			return float64(m.Power.EnergyPerKB(units.DBm(x)))
		})
	}
	return t, nil
}

// fillChords stores per-bin chord coefficients: the affine interpolant of
// f between the bin's edges. A degenerate domain collapses to a constant.
func fillChords(slope, intercept []float64, lo, hi float64, bins int, f func(float64) float64) {
	if hi <= lo {
		c := f(lo)
		for k := range slope {
			slope[k], intercept[k] = 0, c
		}
		return
	}
	w := (hi - lo) / float64(bins)
	for k := range slope {
		x0 := lo + float64(k)*w
		x1 := x0 + w
		if k == bins-1 {
			x1 = hi // avoid accumulation drift past the domain edge
		}
		y0, y1 := f(x0), f(x1)
		s := (y1 - y0) / (x1 - x0)
		slope[k] = s
		intercept[k] = y0 - s*x0
	}
}

// bin returns the quantized bin index for sig, clamped to the table.
// NaN maps to bin 0 so a corrupted signal can never index out of range.
// The bounds are compared before the float→int conversion because
// converting an out-of-range float64 (notably ±Inf) to int is
// implementation-specific in Go.
func (t *Table) bin(sig units.DBm) int {
	x := float64(sig)
	if math.IsNaN(x) || x <= t.lo {
		return 0
	}
	if x >= t.hi {
		return t.bins - 1
	}
	k := int((x - t.lo) * t.invW)
	if k >= t.bins { // x infinitesimally below hi can round up
		return t.bins - 1
	}
	return k
}

// Lookup evaluates both curves at sig: through the quantized bins, or
// through the one coefficient set of an exact table.
func (t *Table) Lookup(sig units.DBm) (units.KBps, units.MJ) {
	x := float64(sig)
	k := 0
	if !t.exact {
		k = t.bin(sig)
	}
	v := affineFloored(t.tSlope[k], t.tIntercept[k], t.tFloor, x)
	var p float64
	if t.fitted {
		p = fittedPrice(t.pBase, t.pScale, affineFloored(t.vSlope[k], t.vIntercept[k], t.vFloor, x))
	} else {
		p = affineFloored(t.pSlope[k], t.pIntercept[k], 0, x)
	}
	return units.KBps(v), units.MJ(p)
}

// exactFit is the one coefficient set an exact table keeps, by value:
// Lookup's closed form without the table's indirections.
type exactFit struct {
	ts, ti, tf float64 // throughput: affine, floored
	vs, vi, vf float64 // the power model's own throughput curve
	pb, ps     float64 // price: base + scale/w, floored at zero
}

// fit returns an exact table's coefficients. It is not inlined so its
// index checks stay out of link.go, which the bce-check job guards.
//
//go:noinline
func (t *Table) fit() exactFit {
	return exactFit{t.tSlope[0], t.tIntercept[0], t.tFloor, t.vSlope[0], t.vIntercept[0], t.vFloor, t.pBase, t.pScale}
}

// v and p are Lookup on an exact table, bit for bit, each small enough to
// inline into a batch loop.
func (f *exactFit) v(x float64) float64 { return affineFloored(f.ts, f.ti, f.tf, x) }
func (f *exactFit) p(x float64) float64 {
	return fittedPrice(f.pb, f.ps, affineFloored(f.vs, f.vi, f.vf, x))
}

// affineFloored is slope·x + intercept floored at floor (a NaN passes
// through, as it does in LinearThroughput).
func affineFloored(slope, intercept, floor, x float64) float64 {
	y := slope*x + intercept
	if y < floor {
		y = floor
	}
	return y
}

// fittedPrice is FittedPower's p = base + scale/w, floored at zero, with
// its w ≤ 0 guard.
func fittedPrice(base, scale, w float64) float64 {
	if w <= 0 {
		return scale
	}
	p := base + scale/w
	if p < 0 {
		p = 0
	}
	return p
}

// Throughput implements ThroughputModel.
func (t *Table) Throughput(sig units.DBm) units.KBps {
	v, _ := t.Lookup(sig)
	return v
}

// EnergyPerKB implements PowerModel.
func (t *Table) EnergyPerKB(sig units.DBm) units.MJ {
	_, p := t.Lookup(sig)
	return p
}
