package sched

import (
	"testing"

	"jointstream/internal/rrc"
)

func TestAdaptiveEMAValidation(t *testing.T) {
	base := AdaptiveEMAConfig{Omega: 0.05, RRC: rrc.Paper3G()}
	if _, err := NewAdaptiveEMA(base); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []func(*AdaptiveEMAConfig){
		func(c *AdaptiveEMAConfig) { c.Omega = -1 },
		func(c *AdaptiveEMAConfig) { c.RRC = rrc.Profile{Pd: -1} },
	}
	for i, mut := range bad {
		cfg := base
		mut(&cfg)
		if _, err := NewAdaptiveEMA(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestAdaptiveEMAName(t *testing.T) {
	a, _ := NewAdaptiveEMA(AdaptiveEMAConfig{Omega: 0.05, RRC: rrc.Paper3G()})
	if a.Name() != "AdaptiveEMA" {
		t.Error("name mismatch")
	}
	if a.V() != adaptiveInitialV {
		t.Errorf("initial V = %v, want %v", a.V(), adaptiveInitialV)
	}
}

// Constant stall pressure above Omega must drive V down.
func TestAdaptiveEMALowersVUnderStalls(t *testing.T) {
	a, err := NewAdaptiveEMA(AdaptiveEMAConfig{Omega: 0.01, RRC: rrc.Paper3G()})
	if err != nil {
		t.Fatal(err)
	}
	v0 := a.V()
	for n := 0; n < 3*adaptiveWindow; n++ {
		u := stdUser(400, -80, 10)
		u.BufferSec = 0        // permanently starved: stall rate ~1 s per slot
		slot := makeSlot(0, u) // zero capacity so the buffer never fills
		a.Allocate(slot, make([]int, 1))
	}
	if a.V() >= v0 {
		t.Errorf("V did not drop under stalls: %v -> %v", v0, a.V())
	}
}

// Comfortable buffers well under the stall budget must raise V.
func TestAdaptiveEMARaisesVWhenComfortable(t *testing.T) {
	a, err := NewAdaptiveEMA(AdaptiveEMAConfig{Omega: 0.5, RRC: rrc.Paper3G()})
	if err != nil {
		t.Fatal(err)
	}
	v0 := a.V()
	for n := 0; n < 3*adaptiveWindow; n++ {
		u := stdUser(400, -60, 10)
		u.BufferSec = 30 // deep buffer: zero stall pressure
		slot := makeSlot(100, u)
		a.Allocate(slot, make([]int, 1))
	}
	if a.V() <= v0 {
		t.Errorf("V did not rise with headroom: %v -> %v", v0, a.V())
	}
}

// Enough windows to walk V from adaptiveInitialV past either bound (12
// divisions by 1.5 reach adaptiveVMin, 16 multiplications adaptiveVMax):
// it must stop at the bound.
func TestAdaptiveEMARespectsVBounds(t *testing.T) {
	const slots = 20 * adaptiveWindow
	a, err := NewAdaptiveEMA(AdaptiveEMAConfig{Omega: 0.01, RRC: rrc.Paper3G()})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < slots; n++ {
		u := stdUser(400, -80, 10)
		u.BufferSec = 0
		a.Allocate(makeSlot(0, u), make([]int, 1))
	}
	if a.V() != adaptiveVMin {
		t.Errorf("V %v under constant stalls, want the floor %v", a.V(), adaptiveVMin)
	}
	b, _ := NewAdaptiveEMA(AdaptiveEMAConfig{Omega: 0.5, RRC: rrc.Paper3G()})
	for n := 0; n < slots; n++ {
		u := stdUser(400, -60, 10)
		u.BufferSec = 30
		b.Allocate(makeSlot(100, u), make([]int, 1))
	}
	if b.V() != adaptiveVMax {
		t.Errorf("V %v with constant headroom, want the ceiling %v", b.V(), adaptiveVMax)
	}
}

func TestAdaptiveEMADeadBandHoldsV(t *testing.T) {
	// Stall rate between adaptiveMargin*Omega and Omega: V must not move.
	a, err := NewAdaptiveEMA(AdaptiveEMAConfig{Omega: 0.5, RRC: rrc.Paper3G()})
	if err != nil {
		t.Fatal(err)
	}
	v0 := a.V()
	for n := 0; n < 3*adaptiveWindow; n++ {
		u := stdUser(400, -60, 10)
		u.BufferSec = 0.7 // stall pressure 0.3 in (0.25, 0.5)
		a.Allocate(makeSlot(100, u), make([]int, 1))
	}
	if a.V() != v0 {
		t.Errorf("V moved inside the dead band: %v -> %v", v0, a.V())
	}
}

func TestAdaptiveEMAConstraints(t *testing.T) {
	a, _ := NewAdaptiveEMA(AdaptiveEMAConfig{Omega: 0.05, RRC: rrc.Paper3G()})
	slot := makeSlot(15,
		stdUser(300, -55, 40), stdUser(450, -70, 20), stdUser(600, -90, 12))
	alloc := make([]int, 3)
	a.Allocate(slot, alloc)
	if err := slot.Validate(alloc); err != nil {
		t.Errorf("AdaptiveEMA violated constraints: %v", err)
	}
}
