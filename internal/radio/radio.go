// Package radio models the physical-layer relationship between signal
// strength and both achievable throughput and per-byte energy cost.
//
// The paper adopts the numerically fitted curves of Suneja et al. (ENVI,
// 2013), reproduced as Eq. (24):
//
//	v(sig) = 65.8·sig + 7567.0        [KB/s], sig in dBm
//	P(sig) = −0.167 + 1560 / v(sig)   [mJ/KB]
//
// so a stronger (less negative) signal yields higher throughput and a lower
// per-byte energy price. Note the instantaneous radio power while receiving
// at full rate is P(sig)·v(sig) = −0.167·v + 1560 mW, i.e. weak-signal
// reception is the most power-hungry — the effect both RTMA's admission
// threshold and EMA's drift-plus-penalty exploit.
//
// The package exposes the models behind small interfaces so tests can
// substitute curves of their own.
package radio

import "jointstream/internal/units"

// ThroughputModel maps signal strength to the maximum achievable
// application-layer data rate (Definition 3 in the paper).
type ThroughputModel interface {
	// Throughput returns the max rate at the given RSSI. Implementations
	// never return a negative rate.
	Throughput(sig units.DBm) units.KBps
}

// PowerModel maps signal strength to the energy cost of receiving one
// kilobyte (Definition 4 in the paper).
type PowerModel interface {
	// EnergyPerKB returns mJ consumed per KB received at the given RSSI.
	// Implementations never return a negative cost.
	EnergyPerKB(sig units.DBm) units.MJ
}

// Model bundles the two curves; the simulator carries one Model per run.
type Model struct {
	Throughput ThroughputModel
	Power      PowerModel
}

// LinearThroughput is the paper's linear throughput fit
// v(sig) = Slope·sig + Intercept, floored at MinRate to avoid non-physical
// zero/negative rates at the weak end of the clamped signal range.
type LinearThroughput struct {
	Slope     float64    // KB/s per dBm
	Intercept float64    // KB/s
	MinRate   units.KBps // floor; must be > 0 for a usable channel
}

// Throughput implements ThroughputModel.
func (m LinearThroughput) Throughput(sig units.DBm) units.KBps {
	v := units.KBps(m.Slope*float64(sig) + m.Intercept)
	if v < m.MinRate {
		return m.MinRate
	}
	return v
}

// FittedPower is the paper's per-byte energy fit
// P(sig) = Base + Scale / v(sig), with v supplied by a ThroughputModel.
// The result is floored at zero.
type FittedPower struct {
	Base  float64 // mJ/KB (negative in the paper's fit: −0.167)
	Scale float64 // mJ/s  (1560 in the paper's fit)
	V     ThroughputModel
}

// EnergyPerKB implements PowerModel.
func (m FittedPower) EnergyPerKB(sig units.DBm) units.MJ {
	v := float64(m.V.Throughput(sig))
	if v <= 0 {
		// Unreachable with a positive MinRate floor, but keep the model
		// total: an unusable channel has unbounded cost, represented as 0
		// throughput upstream and a huge (not infinite) price here.
		return units.MJ(m.Scale)
	}
	p := m.Base + m.Scale/v
	if p < 0 {
		return 0
	}
	return units.MJ(p)
}

// Paper3G returns the exact Eq. (24) model used in the paper's evaluation.
// At −50 dBm it yields ≈4277 KB/s at ≈0.20 mJ/KB; at −110 dBm,
// ≈329 KB/s at ≈4.57 mJ/KB.
func Paper3G() Model {
	v := LinearThroughput{Slope: 65.8, Intercept: 7567.0, MinRate: 1}
	return Model{
		Throughput: v,
		Power:      FittedPower{Base: -0.167, Scale: 1560, V: v},
	}
}

// LTE returns an LTE-flavored variant: the paper argues (§III, §VI) the
// same framework applies to LTE with different constants. We scale the 3G
// fit to LTE-class rates (Huang et al., MobiSys 2012 report ~3x downlink
// throughput and higher radio power), preserving the shape: linear rate in
// RSSI, per-byte price hyperbolic in rate.
func LTE() Model {
	v := LinearThroughput{Slope: 197.4, Intercept: 22701.0, MinRate: 1}
	return Model{
		Throughput: v,
		Power:      FittedPower{Base: -0.11, Scale: 3120, V: v},
	}
}
