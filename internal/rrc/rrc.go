// Package rrc models the Radio Resource Control state machine of cellular
// user equipment and the "tail energy" it causes (paper §III-C, Eq. 4).
//
// In 3G/UMTS a device occupies CELL_DCH (high power) while transferring,
// demotes to CELL_FACH (medium power) after an inactivity timer T1, and to
// IDLE (negligible power in this model) after a further timer T2. LTE has
// the analogous RRC_CONNECTED/RRC_IDLE pair with its own timer and powers.
// Because the timers span several seconds, a device that receives nothing
// in a slot still burns "tail" power left over from its last transfer —
// the energy the paper's EMA scheduler explicitly trades against.
//
// The package provides both the closed-form cumulative tail energy of
// Eq. (4) and Tail, the incremental per-slot state every engine keeps per
// device; tests cross-validate the two so either can be trusted.
package rrc

import (
	"fmt"

	"jointstream/internal/units"
)

// Profile holds the RRC parameters of one radio technology.
type Profile struct {
	Name string
	// Pd and Pf are the instantaneous powers in the high and medium states.
	Pd, Pf units.MW
	// T1 is the DCH→FACH inactivity timer; T2 the FACH→IDLE timer.
	// A profile with T2 == 0 (e.g. LTE) demotes straight to IDLE after T1.
	T1, T2 units.Seconds
	// Dormancy, when positive, enables Fast Dormancy (3GPP Release 8 /
	// the mechanism RadioJockey and TOP exploit): the device sends a
	// Signaling Connection Release after this many seconds of inactivity
	// and drops straight to IDLE, truncating the tail. Zero disables it.
	Dormancy units.Seconds
}

// WithFastDormancy returns a copy of the profile that releases the radio
// after the given inactivity delay.
func (p Profile) WithFastDormancy(after units.Seconds) Profile {
	p.Dormancy = after
	p.Name = p.Name + "+FD"
	return p
}

// Paper3G returns the 3G parameters the paper adopts from PerES (Cui et
// al., INFOCOM 2014): Pd = 732.83 mW, Pf = 388.88 mW, T1 = 3.29 s,
// T2 = 4.02 s.
func Paper3G() Profile {
	return Profile{Name: "3G", Pd: 732.83, Pf: 388.88, T1: 3.29, T2: 4.02}
}

// LTE returns an LTE profile: a single RRC_CONNECTED tail (Huang et al.,
// MobiSys 2012 measure ~11.6 s inactivity timer at ~1060 mW). T2 = 0
// expresses the missing FACH state.
func LTE() Profile {
	return Profile{Name: "LTE", Pd: 1060, Pf: 0, T1: 11.6, T2: 0}
}

// Validate reports whether the profile is physically sensible.
func (p Profile) Validate() error {
	if p.Pd < 0 || p.Pf < 0 {
		return fmt.Errorf("rrc: negative power in profile %q", p.Name)
	}
	if p.T1 < 0 || p.T2 < 0 {
		return fmt.Errorf("rrc: negative timer in profile %q", p.Name)
	}
	if p.Dormancy < 0 {
		return fmt.Errorf("rrc: negative fast-dormancy delay in profile %q", p.Name)
	}
	return nil
}

// TailEnergy is the closed form of Eq. (4): the cumulative energy spent in
// the tail during the first t seconds after a transfer ends.
//
//	E(t) = Pd·t                    0 ≤ t < T1
//	       Pd·T1 + Pf·(t−T1)       T1 ≤ t < T1+T2
//	       Pd·T1 + Pf·T2           t ≥ T1+T2
func (p Profile) TailEnergy(t units.Seconds) units.MJ {
	if t < 0 {
		panic(fmt.Sprintf("rrc: negative gap %v", t))
	}
	// Fast Dormancy truncates the tail: beyond the release delay the
	// radio is in IDLE and burns nothing more.
	if p.Dormancy > 0 && t > p.Dormancy {
		t = p.Dormancy
	}
	switch {
	case t < p.T1:
		return p.Pd.Energy(t)
	case t < p.T1+p.T2:
		return p.Pd.Energy(p.T1) + p.Pf.Energy(t-p.T1)
	default:
		return p.Pd.Energy(p.T1) + p.Pf.Energy(p.T2)
	}
}

// TailIncrement returns the tail energy burned between gap and gap+tau
// seconds after the last transfer: TailEnergy(gap+tau) − TailEnergy(gap).
// It short-circuits to zero once the tail is fully drained (gap beyond
// T1+T2, or beyond the Fast Dormancy release), which is the common case
// for long-idle radios and keeps hot-path callers (Tail.IdleSlot, EMA's
// per-slot skip cost) off the closed form.
func (p Profile) TailIncrement(gap, tau units.Seconds) units.MJ {
	if gap < 0 {
		panic(fmt.Sprintf("rrc: negative gap %v", gap))
	}
	if tau < 0 {
		panic(fmt.Sprintf("rrc: negative slot length %v", tau))
	}
	if gap >= p.TailDrainedAfter() {
		return 0
	}
	return p.TailEnergy(gap+tau) - p.TailEnergy(gap)
}

// TailDrainedAfter returns the gap beyond which the tail burns no further
// energy: T1+T2, truncated by Fast Dormancy when enabled.
func (p Profile) TailDrainedAfter() units.Seconds {
	drained := p.T1 + p.T2
	if p.Dormancy > 0 && p.Dormancy < drained {
		drained = p.Dormancy
	}
	return drained
}

// MaxTailEnergy is the total energy of one complete tail (t → ∞ in Eq. 4),
// accounting for Fast Dormancy truncation if enabled.
func (p Profile) MaxTailEnergy() units.MJ {
	if p.Dormancy > 0 && p.Dormancy < p.T1+p.T2 {
		return p.TailEnergy(p.Dormancy)
	}
	return p.Pd.Energy(p.T1) + p.Pf.Energy(p.T2)
}

// Tail is one device's RRC tail state, advanced slot by slot: exactly one
// of Transfer or IdleSlot per slot. It holds no pointer and no profile —
// every device of a cell shares one Profile — so an engine keeps it by
// value in its flat per-user array. The zero value is a device in IDLE
// with no transfer history.
type Tail struct {
	// Gap is the time since the end of the last transfer; 0 while active.
	Gap units.Seconds
	// EverActive records whether any transfer has happened yet: a device
	// that has never transferred sits in IDLE and burns no tail energy.
	EverActive bool
}

// Transfer records that the device received data during a slot: the radio
// promotes to DCH and all inactivity timers reset. Tail energy for such a
// slot is zero — transmission energy (Eq. 3) is accounted separately by
// the radio model, exactly as in the paper's Eq. (5).
func (t *Tail) Transfer() {
	t.EverActive = true
	t.Gap = 0
}

// IdleSlot advances the tail through one slot of length tau with no
// transfer and returns the energy it burns under profile p:
// E_tail(gap+tau) − E_tail(gap) per Eq. (4). A device that has never
// transferred neither burns energy nor ages its gap. A negative tau
// panics once the device has transferred.
func (t *Tail) IdleSlot(p *Profile, tau units.Seconds) units.MJ {
	if !t.EverActive {
		return 0
	}
	inc := p.TailIncrement(t.Gap, tau)
	t.Gap += tau
	return inc
}

// Drained reports whether no idle slot can burn energy any more: the
// device never transferred, or its gap reached after (the profile's
// TailDrainedAfter).
func (t Tail) Drained(after units.Seconds) bool {
	return !t.EverActive || t.Gap >= after
}
