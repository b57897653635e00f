package radio

import "jointstream/internal/units"

// Link is the one evaluator of what a signal determines of a user's slot
// on a (τ, δ) grid: throughput v(sig) and per-KB price P(sig) of Eq. (24)
// and the Eq. (1) limit ⌊τ·v/δ⌋ in data units. The engines' tick, the
// gateway, the forecasts and the oracle all derive through it, so the
// three closed forms have one implementation.
//
// It evaluates the model's exact Table when the model has one — the same
// floating-point expressions as the interfaces, without dispatch — and the
// model's interfaces otherwise, so its values are bitwise the interfaces'
// either way. The bce-check CI job builds this file with -d=ssa/check_bce:
// keep the batch loops' reslice structure when editing.
type Link struct {
	m         Model
	exact     bool
	fit       exactFit // the model's exact table, when exact
	tau, unit float64
}

// NewLink builds the evaluator of m on slots of tau seconds and units of
// unit KB. The model's table is kept only when it is exact, in which case
// Lookup never consults the quantizer — hence the one-bin, one-point
// domain.
func NewLink(m Model, tau units.Seconds, unit units.KB) (*Link, error) {
	tab, err := NewTable(m, 0, 0, 1)
	if err != nil {
		return nil, err
	}
	l := &Link{m: m, exact: tab.exact, tau: float64(tau), unit: float64(unit)}
	if l.exact {
		l.fit = tab.fit()
	}
	return l, nil
}

// At returns v(sig), P(sig) and ⌊τ·v/δ⌋ (0 for a non-positive τ·v).
func (l *Link) At(sig units.DBm) (units.KBps, units.MJ, int) {
	if l.exact {
		v := units.KBps(l.fit.v(float64(sig)))
		return v, units.MJ(l.fit.p(float64(sig))), l.units(v)
	}
	v := l.m.Throughput.Throughput(sig)
	return v, l.m.Power.EnergyPerKB(sig), l.units(v)
}

// Into evaluates At at every sig[i] into v[i], p[i] and lu[i], which must
// be at least as long as sig: one slot's row of a block, in one pass. An
// exact table runs one loop with the fit's coefficients held in registers.
func (l *Link) Into(sig []units.DBm, v []units.KBps, p []units.MJ, lu []int32) {
	v, p, lu = v[:len(sig)], p[:len(sig)], lu[:len(sig)]
	if l.exact {
		f := l.fit
		for i, s := range sig {
			w := units.KBps(f.v(float64(s)))
			v[i], p[i], lu[i] = w, units.MJ(f.p(float64(s))), int32(l.units(w))
		}
		return
	}
	thr, pow := l.m.Throughput, l.m.Power
	for i, s := range sig {
		w := thr.Throughput(s)
		v[i], p[i], lu[i] = w, pow.EnergyPerKB(s), int32(l.units(w))
	}
}

// units is ⌊τ·v/δ⌋, the Eq. (1) limit before any demand cap.
func (l *Link) units(v units.KBps) int {
	amount := float64(v) * l.tau
	if amount <= 0 {
		return 0
	}
	return int(amount / l.unit)
}
