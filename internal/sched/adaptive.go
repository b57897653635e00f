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
// staying within [VMin, VMax]. The underlying per-slot decision remains
// Alg. 2's exact DP, so all Eq. (1)/(2) feasibility properties carry over.
type AdaptiveEMA struct {
	inner *EMA
	cfg   AdaptiveEMAConfig

	slotCount  int
	stallAccum float64 // Σ per-user estimated stall in the current window
	userSlots  int     // Σ active users over the window's slots
	act        []int   // activeIndices fallback scratch
}

// AdaptiveEMAConfig configures the controller.
type AdaptiveEMAConfig struct {
	// Omega is the target average rebuffering per user per slot (the
	// paper's PC(Γ) bound, Eq. 13).
	Omega units.Seconds
	// InitialV seeds the Lyapunov weight (default 0.1).
	InitialV float64
	// VMin and VMax bound the adaptation (defaults 0.001 and 64).
	VMin, VMax float64
	// Gamma is the multiplicative step (default 1.5; must be > 1).
	Gamma float64
	// AdjustEvery is the window length in slots (default 50).
	AdjustEvery int
	// Margin is the dead band below Omega within which V is left alone
	// (default 0.5: increase V only when stalls are under half the
	// budget).
	Margin float64
	// RRC supplies the tail model for the inner EMA.
	RRC rrc.Profile
}

func (c *AdaptiveEMAConfig) setDefaults() {
	if c.InitialV == 0 {
		c.InitialV = 0.1
	}
	if c.VMin == 0 {
		c.VMin = 0.001
	}
	if c.VMax == 0 {
		c.VMax = 64
	}
	if c.Gamma == 0 {
		c.Gamma = 1.5
	}
	if c.AdjustEvery == 0 {
		c.AdjustEvery = 50
	}
	if c.Margin == 0 {
		c.Margin = 0.5
	}
}

// NewAdaptiveEMA validates the configuration and builds the scheduler.
func NewAdaptiveEMA(cfg AdaptiveEMAConfig) (*AdaptiveEMA, error) {
	cfg.setDefaults()
	if cfg.Omega < 0 || math.IsNaN(float64(cfg.Omega)) {
		return nil, fmt.Errorf("adaptive-ema: invalid omega %v", cfg.Omega)
	}
	if cfg.VMin <= 0 || cfg.VMax <= cfg.VMin {
		return nil, fmt.Errorf("adaptive-ema: invalid V range [%v, %v]", cfg.VMin, cfg.VMax)
	}
	if cfg.InitialV < cfg.VMin || cfg.InitialV > cfg.VMax {
		return nil, fmt.Errorf("adaptive-ema: initial V %v outside [%v, %v]", cfg.InitialV, cfg.VMin, cfg.VMax)
	}
	if cfg.Gamma <= 1 {
		return nil, fmt.Errorf("adaptive-ema: gamma %v must exceed 1", cfg.Gamma)
	}
	if cfg.AdjustEvery < 1 {
		return nil, fmt.Errorf("adaptive-ema: adjust window %d < 1", cfg.AdjustEvery)
	}
	if cfg.Margin < 0 || cfg.Margin > 1 {
		return nil, fmt.Errorf("adaptive-ema: margin %v outside [0, 1]", cfg.Margin)
	}
	inner, err := NewEMA(EMAConfig{V: cfg.InitialV, RRC: cfg.RRC})
	if err != nil {
		return nil, err
	}
	return &AdaptiveEMA{inner: inner, cfg: cfg}, nil
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
	if a.slotCount >= a.cfg.AdjustEvery {
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
	case rate > float64(a.cfg.Omega):
		v /= a.cfg.Gamma
	case rate < float64(a.cfg.Omega)*a.cfg.Margin:
		v *= a.cfg.Gamma
	default:
		return
	}
	if v < a.cfg.VMin {
		v = a.cfg.VMin
	}
	if v > a.cfg.VMax {
		v = a.cfg.VMax
	}
	a.inner.v = v
}

var _ Scheduler = (*AdaptiveEMA)(nil)
