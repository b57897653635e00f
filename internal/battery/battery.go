// Package battery converts the simulator's radio energy figures into the
// battery-life terms the paper's motivation is written in ("battery
// endurance", §I): given a device battery and a measured per-session radio
// energy, how much charge does a video cost, and how many hours of
// streaming does a full charge sustain?
//
// The model is deliberately simple — a battery is an energy reservoir
// (capacity_mAh × voltage), and the radio energy reported by the
// simulator is the marginal drain attributable to streaming. Baseline
// device drain (screen, SoC) can be added as a constant power so the
// projections stay honest about what share of battery life the radio
// actually governs.
package battery

import (
	"fmt"

	"jointstream/internal/units"
)

// Pack describes a device battery.
type Pack struct {
	// CapacitymAh is the rated charge capacity.
	CapacitymAh float64
	// Voltage is the nominal cell voltage.
	Voltage float64
	// BaselineMW is the non-radio device power draw while streaming
	// (screen + SoC + decode); 0 models radio-only accounting.
	BaselineMW units.MW
}

// Typical2015Phone matches the class of device the paper's measurements
// come from: a 2600 mAh, 3.8 V pack (e.g. Galaxy S4/S5 era) with ~1 W of
// screen+decode draw during video playback.
func Typical2015Phone() Pack {
	return Pack{CapacitymAh: 2600, Voltage: 3.8, BaselineMW: 1000}
}

// validate checks the pack parameters.
func (p Pack) validate() error {
	if p.CapacitymAh <= 0 {
		return fmt.Errorf("battery: non-positive capacity %v mAh", p.CapacitymAh)
	}
	if p.Voltage <= 0 {
		return fmt.Errorf("battery: non-positive voltage %v", p.Voltage)
	}
	if p.BaselineMW < 0 {
		return fmt.Errorf("battery: negative baseline power %v", p.BaselineMW)
	}
	return nil
}

// TotalMJ returns the pack's full-charge energy in millijoules:
// mAh × 3.6 (to coulombs) × V × 1000 (to mJ).
func (p Pack) TotalMJ() units.MJ {
	return units.MJ(p.CapacitymAh * 3.6 * p.Voltage * 1000)
}

// SessionCost describes what one streaming session costs.
type SessionCost struct {
	// RadioMJ is the radio energy (from the simulator).
	RadioMJ units.MJ
	// BaselineMJ is the non-radio drain over the session duration.
	BaselineMJ units.MJ
	// Percent is the share of a full charge consumed.
	Percent float64
}

// totalMJ returns the session's combined energy.
func (c SessionCost) totalMJ() units.MJ { return c.RadioMJ + c.BaselineMJ }

// Session computes the battery cost of one streaming session: radioMJ is
// the simulator's per-user energy, duration the session length.
func (p Pack) Session(radioMJ units.MJ, duration units.Seconds) (SessionCost, error) {
	if err := p.validate(); err != nil {
		return SessionCost{}, err
	}
	if radioMJ < 0 {
		return SessionCost{}, fmt.Errorf("battery: negative radio energy %v", radioMJ)
	}
	if duration < 0 {
		return SessionCost{}, fmt.Errorf("battery: negative duration %v", duration)
	}
	cost := SessionCost{
		RadioMJ:    radioMJ,
		BaselineMJ: p.BaselineMW.Energy(duration),
	}
	cost.Percent = float64(cost.totalMJ()) / float64(p.TotalMJ()) * 100
	return cost, nil
}

// StreamingHours projects how long a full charge sustains continuous
// streaming at the given average radio power (mJ per second = mW).
func (p Pack) StreamingHours(radioPower units.MW) (float64, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	if radioPower < 0 {
		return 0, fmt.Errorf("battery: negative radio power %v", radioPower)
	}
	total := radioPower + p.BaselineMW
	if total == 0 {
		return 0, fmt.Errorf("battery: zero total draw, lifetime unbounded")
	}
	seconds := float64(p.TotalMJ()) / float64(total)
	return seconds / 3600, nil
}

// ExtraSessions converts an energy saving per session into "extra videos
// per charge": how many additional sessions of the improved cost fit into
// the budget the old cost implied.
func (p Pack) ExtraSessions(oldCost, newCost SessionCost) (float64, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	if newCost.totalMJ() <= 0 {
		return 0, fmt.Errorf("battery: non-positive session cost")
	}
	if oldCost.totalMJ() < newCost.totalMJ() {
		return 0, fmt.Errorf("battery: new cost exceeds old cost")
	}
	perCharge := float64(p.TotalMJ())
	return perCharge/float64(newCost.totalMJ()) - perCharge/float64(oldCost.totalMJ()), nil
}
