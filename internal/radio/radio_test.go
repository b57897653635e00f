package radio

import (
	"math"
	"testing"

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

func TestLTEFasterThan3G(t *testing.T) {
	g3, lte := Paper3G(), LTE()
	for sig := units.DBm(-110); sig <= -50; sig += 10 {
		if lte.Throughput.Throughput(sig) <= g3.Throughput.Throughput(sig) {
			t.Errorf("LTE not faster than 3G at %v", sig)
		}
	}
}
