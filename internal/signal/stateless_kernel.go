package signal

import "jointstream/internal/units"

// The stateless sine's per-slot loop, in a file of its own because
// scripts/bce_check.sh holds it to zero per-element bounds checks: a
// check on lo would sit in the loop every serving-mode sample goes through.

// sineBlock is what the slots of one table block share: sin and cos of
// θ_h + φ, and the trace's scale and bounds.
type sineBlock struct {
	sin, cos        float64
	mid, amp, noise float64
	lower, upper    float64
}

// fill turns run[k], a standard normal (0 for a noiseless trace), into
// the slot's sample: the sine at θ_h + φ + θ_l for l = lo[k] by angle
// addition, plus the scaled noise, clamped. The clamp is min/max and not
// compare-and-branch: at the paper's noise a fifth of the samples land on
// either bound, at random, and the mispredicted branches cost more than
// the rest of the loop together.
func (b sineBlock) fill(run []units.DBm, lo []sinCos) {
	lo = lo[:len(run)]
	for k, z := range run {
		s := b.sin*lo[k].cos + b.cos*lo[k].sin
		run[k] = units.DBm(min(max(b.mid+b.amp*s+b.noise*float64(z), b.lower), b.upper))
	}
}
