package radio

import (
	"math"
	"testing"
	"testing/quick"

	"jointstream/internal/units"
)

func TestPaper3GThroughputMatchesEq24(t *testing.T) {
	m := Paper3G()
	cases := []struct {
		sig  units.DBm
		want float64 // KB/s
	}{
		{-50, 65.8*-50 + 7567},   // 4277
		{-80, 65.8*-80 + 7567},   // 2303
		{-110, 65.8*-110 + 7567}, // 329
	}
	for _, c := range cases {
		got := float64(m.Throughput.Throughput(c.sig))
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("v(%v) = %v, want %v", c.sig, got, c.want)
		}
	}
}

func TestPaper3GPowerMatchesEq24(t *testing.T) {
	m := Paper3G()
	for _, sig := range []units.DBm{-50, -70, -90, -110} {
		v := 65.8*float64(sig) + 7567
		want := -0.167 + 1560/v
		got := float64(m.Power.EnergyPerKB(sig))
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("P(%v) = %v, want %v", sig, got, want)
		}
	}
}

func TestStrongerSignalFasterAndCheaper(t *testing.T) {
	m := Paper3G()
	prevV := units.KBps(-1)
	prevP := units.MJ(math.Inf(1))
	for sig := units.DBm(-110); sig <= -50; sig += 5 {
		v := m.Throughput.Throughput(sig)
		p := m.Power.EnergyPerKB(sig)
		if v <= prevV {
			t.Errorf("throughput not strictly increasing at %v", sig)
		}
		if p >= prevP {
			t.Errorf("per-KB energy not strictly decreasing at %v", sig)
		}
		prevV, prevP = v, p
	}
}

func TestThroughputFloor(t *testing.T) {
	m := LinearThroughput{Slope: 65.8, Intercept: 7567, MinRate: 1}
	if got := m.Throughput(-200); got != 1 {
		t.Errorf("Throughput(-200) = %v, want floor 1", got)
	}
}

func TestPowerFloorNonNegative(t *testing.T) {
	// A strong enough signal would push Base + Scale/v below zero if Base
	// is very negative; the model floors at 0.
	v := LinearThroughput{Slope: 65.8, Intercept: 7567, MinRate: 1}
	p := FittedPower{Base: -10, Scale: 1560, V: v}
	if got := p.EnergyPerKB(-50); got != 0 {
		t.Errorf("EnergyPerKB = %v, want floored 0", got)
	}
}

func TestTransmissionEnergyEq3(t *testing.T) {
	m := Paper3G()
	sig := units.DBm(-80)
	perKB := float64(m.Power.EnergyPerKB(sig))
	got := float64(m.TransmissionEnergy(sig, 500))
	if math.Abs(got-500*perKB) > 1e-9 {
		t.Errorf("TransmissionEnergy = %v, want %v", got, 500*perKB)
	}
}

func TestReceivePowerShape(t *testing.T) {
	m := Paper3G()
	// P(sig)*v(sig) = -0.167*v + 1560, so weaker signal => higher power.
	weak := float64(m.ReceivePower(-110))
	strong := float64(m.ReceivePower(-50))
	if weak <= strong {
		t.Errorf("receive power at weak signal (%v) should exceed strong (%v)", weak, strong)
	}
	wantWeak := -0.167*(65.8*-110+7567) + 1560
	if math.Abs(weak-wantWeak) > 1e-6 {
		t.Errorf("ReceivePower(-110) = %v, want %v", weak, wantWeak)
	}
}

func TestSignalForThroughputInverts(t *testing.T) {
	m := LinearThroughput{Slope: 65.8, Intercept: 7567, MinRate: 1}
	for _, v := range []units.KBps{400, 1000, 4000} {
		sig := m.SignalForThroughput(v)
		back := m.Throughput(sig)
		if math.Abs(float64(back-v)) > 1e-6 {
			t.Errorf("Throughput(SignalForThroughput(%v)) = %v", v, back)
		}
	}
}

func TestSignalForThroughputZeroSlope(t *testing.T) {
	m := LinearThroughput{Slope: 0, Intercept: 100, MinRate: 1}
	if got := m.SignalForThroughput(500); got != 0 {
		t.Errorf("zero-slope inverse = %v, want 0 sentinel", got)
	}
}

func TestLTEFasterThan3G(t *testing.T) {
	g3, lte := Paper3G(), LTE()
	for sig := units.DBm(-110); sig <= -50; sig += 10 {
		if lte.Throughput.Throughput(sig) <= g3.Throughput.Throughput(sig) {
			t.Errorf("LTE not faster than 3G at %v", sig)
		}
	}
}

// Property: for the paper model, energy for k KB is linear in k.
func TestTransmissionEnergyLinearProperty(t *testing.T) {
	m := Paper3G()
	f := func(sigRaw uint8, kRaw uint16) bool {
		sig := units.DBm(-110 + float64(sigRaw%61))
		k := units.KB(kRaw)
		e1 := float64(m.TransmissionEnergy(sig, k))
		e2 := float64(m.TransmissionEnergy(sig, 2*k))
		return math.Abs(e2-2*e1) < 1e-6*(1+e2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
