package sched

import (
	"fmt"
	"math"

	"jointstream/internal/rrc"
	"jointstream/internal/units"
)

// AdaptiveEMA is an extension of the paper's EMA that tunes the Lyapunov
// weight V online instead of requiring an offline Ω→V calibration run.
//
// The paper's Theorem 1 guarantees PC ≤ (B + V·E*)/ε for any fixed V but
// gives no way to pick V for a concrete rebuffering budget Ω; our
// experiment harness bisects over pilot simulations, which a deployed
// gateway cannot do. AdaptiveEMA closes the loop instead: it observes the
// per-slot stall pressure implied by the users' buffer levels and applies
// multiplicative-increase/decrease to V every adjustment window —
//
//	measured stall rate > Ω  ⇒  V ← V/γ  (spend energy, protect playback)
//	measured stall rate < Ω·margin ⇒ V ← V·γ  (harvest energy headroom)
//
// staying within [adaptiveVMin, adaptiveVMax]. The underlying per-slot
// decision remains Alg. 2's exact DP, so all Eq. (1)/(2) feasibility
// properties carry over.
type AdaptiveEMA struct {
	inner *EMA
	omega units.Seconds

	slotCount  int
	stallAccum float64 // Σ per-user estimated stall in the current window
	userSlots  int     // Σ active users over the window's slots
	act        []int   // activeIndices fallback scratch
}

// The controller's settings: V starts at adaptiveInitialV and moves by
// the factor adaptiveGamma within [adaptiveVMin, adaptiveVMax], once every
// adaptiveWindow slots; V is left alone while the stall rate lies in
// [adaptiveMargin·Ω, Ω] (raised only when stalls are under half the
// budget).
const (
	adaptiveInitialV = 0.1
	adaptiveVMin     = 0.001
	adaptiveVMax     = 64
	adaptiveGamma    = 1.5
	adaptiveWindow   = 50
	adaptiveMargin   = 0.5
)

// AdaptiveEMAConfig configures the controller.
type AdaptiveEMAConfig struct {
	// Omega is the target average rebuffering per user per slot (the
	// paper's PC(Γ) bound, Eq. 13).
	Omega units.Seconds
	// RRC supplies the tail model for the inner EMA.
	RRC rrc.Profile
}

// NewAdaptiveEMA validates the configuration and builds the scheduler.
func NewAdaptiveEMA(cfg AdaptiveEMAConfig) (*AdaptiveEMA, error) {
	if cfg.Omega < 0 || math.IsNaN(float64(cfg.Omega)) {
		return nil, fmt.Errorf("adaptive-ema: invalid omega %v", cfg.Omega)
	}
	inner, err := NewEMA(EMAConfig{V: adaptiveInitialV, RRC: cfg.RRC})
	if err != nil {
		return nil, err
	}
	return &AdaptiveEMA{inner: inner, omega: cfg.Omega}, nil
}

// Name implements Scheduler.
func (*AdaptiveEMA) Name() string { return "AdaptiveEMA" }

// V returns the current Lyapunov weight.
func (a *AdaptiveEMA) V() float64 { return a.inner.V() }

// ResetRow and MoveRow implement RowState for the inner EMA's queues.
func (a *AdaptiveEMA) ResetRow(i int)       { a.inner.ResetRow(i) }
func (a *AdaptiveEMA) MoveRow(from, to int) { a.inner.MoveRow(from, to) }

// Allocate implements Scheduler: measure stall pressure, adapt V at
// window boundaries, then delegate to the inner EMA's exact DP.
func (a *AdaptiveEMA) Allocate(slot *Slot, alloc []int) {
	for _, i := range slot.activeIndices(&a.act) {
		a.userSlots++
		if buf := slot.bufferSecAt(i); buf < slot.Tau {
			// The slot will stall for the uncovered remainder (Eq. 8).
			a.stallAccum += float64(slot.Tau - buf)
		}
	}
	a.slotCount++
	if a.slotCount >= adaptiveWindow {
		a.adapt()
	}
	a.inner.Allocate(slot, alloc)
}

// adapt applies the multiplicative update at a window boundary.
func (a *AdaptiveEMA) adapt() {
	defer func() {
		a.slotCount = 0
		a.stallAccum = 0
		a.userSlots = 0
	}()
	if a.userSlots == 0 {
		return
	}
	rate := a.stallAccum / float64(a.userSlots) // seconds of stall per user-slot
	v := a.inner.V()
	switch {
	case rate > float64(a.omega):
		v /= adaptiveGamma
	case rate < float64(a.omega)*adaptiveMargin:
		v *= adaptiveGamma
	default:
		return
	}
	v = min(max(v, adaptiveVMin), adaptiveVMax)
	a.inner.v = v
}

var _ Scheduler = (*AdaptiveEMA)(nil)
