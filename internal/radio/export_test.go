package radio

import "jointstream/internal/units"

// Eq. (3), the receive power and the inverse throughput fit, which only
// the tests evaluate: the engine derives a slot's energy through Link.

// TransmissionEnergy returns the energy to deliver k kilobytes at RSSI sig,
// the paper's Eq. (3): E_trans = P(sig) × data.
func (m Model) TransmissionEnergy(sig units.DBm, k units.KB) units.MJ {
	return units.MJ(float64(m.Power.EnergyPerKB(sig)) * float64(k))
}

// ReceivePower returns the instantaneous radio power while receiving at the
// full rate v(sig): P(sig)·v(sig) in mW.
func (m Model) ReceivePower(sig units.DBm) units.MW {
	return units.MW(float64(m.Power.EnergyPerKB(sig)) * float64(m.Throughput.Throughput(sig)))
}

// SignalForThroughput inverts a LinearThroughput: the weakest signal whose
// throughput is at least v.
func (m LinearThroughput) SignalForThroughput(v units.KBps) units.DBm {
	if m.Slope == 0 {
		return 0
	}
	return units.DBm((float64(v) - m.Intercept) / m.Slope)
}
