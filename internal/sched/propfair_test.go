package sched

import (
	"testing"
	"testing/quick"

	"jointstream/internal/units"
)

func TestPropFairValidation(t *testing.T) {
	if _, err := NewProportionalFair(0.5); err == nil {
		t.Error("sub-slot time constant accepted")
	}
	if _, err := NewProportionalFair(1); err != nil {
		t.Errorf("tc=1 rejected: %v", err)
	}
}

func TestPropFairName(t *testing.T) {
	pf, _ := NewProportionalFair(100)
	if pf.Name() != "PropFair" {
		t.Error("name mismatch")
	}
}

func TestPropFairColdStartServesEveryone(t *testing.T) {
	pf, _ := NewProportionalFair(100)
	// Capacity for everyone: all unserved users have infinite priority and
	// each should get its link bound.
	slot := makeSlot(100, stdUser(400, -60, 10), stdUser(400, -70, 8))
	alloc := make([]int, 2)
	pf.Allocate(slot, alloc)
	if alloc[0] != 10 || alloc[1] != 8 {
		t.Errorf("cold-start alloc = %v, want [10 8]", alloc)
	}
}

func TestPropFairRotatesUnderContention(t *testing.T) {
	pf, _ := NewProportionalFair(10)
	// Two identical users, capacity for one: PF must alternate rather
	// than starve the second user.
	served := [2]int{}
	for n := 0; n < 20; n++ {
		slot := makeSlot(10, stdUser(400, -60, 10), stdUser(400, -60, 10))
		alloc := make([]int, 2)
		pf.Allocate(slot, alloc)
		for i, a := range alloc {
			if a > 0 {
				served[i]++
			}
		}
	}
	if served[0] == 0 || served[1] == 0 {
		t.Fatalf("PF starved a user: %v", served)
	}
	diff := served[0] - served[1]
	if diff < -4 || diff > 4 {
		t.Errorf("PF shares unevenly over 20 slots: %v", served)
	}
}

func TestPropFairPrefersGoodChannelAtEqualAverages(t *testing.T) {
	pf, _ := NewProportionalFair(1000)
	// Warm both users to identical averages.
	for n := 0; n < 5; n++ {
		slot := makeSlot(100, stdUser(400, -70, 10), stdUser(400, -70, 10))
		alloc := make([]int, 2)
		pf.Allocate(slot, alloc)
	}
	// Now user 1 has the better channel and only one grant fits.
	slot := makeSlot(10, stdUser(400, -90, 10), stdUser(400, -55, 10))
	alloc := make([]int, 2)
	pf.Allocate(slot, alloc)
	if alloc[1] == 0 {
		t.Errorf("PF ignored the better channel: %v", alloc)
	}
	if alloc[1] < alloc[0] {
		t.Errorf("better channel under-served: %v", alloc)
	}
}

func TestPropFairSkipsInactive(t *testing.T) {
	pf, _ := NewProportionalFair(100)
	u := stdUser(400, -60, 10)
	u.Active = false
	slot := makeSlot(100, u, stdUser(400, -60, 10))
	alloc := make([]int, 2)
	pf.Allocate(slot, alloc)
	if alloc[0] != 0 {
		t.Errorf("inactive user served: %v", alloc)
	}
}

// Property: PF never violates Eq. (1)/(2).
func TestPropFairConstraintsProperty(t *testing.T) {
	pf, _ := NewProportionalFair(50)
	f := func(rates []uint16, sigs []uint8, capRaw uint16) bool {
		n := len(rates)
		if n == 0 || n > 10 {
			return true
		}
		if len(sigs) < n {
			return true
		}
		users := make([]user, n)
		for i := range users {
			sig := units.DBm(-110 + float64(sigs[i]%61))
			users[i] = stdUser(units.KBps(rates[i]%600+100), sig, int(rates[i]%40))
		}
		slot := makeSlot(int(capRaw%250), users...)
		alloc := make([]int, n)
		pf.Allocate(slot, alloc)
		return slot.Validate(alloc) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
