package sched

import (
	"math"
	"testing"
	"testing/quick"

	"jointstream/internal/radio"
	"jointstream/internal/rrc"
	"jointstream/internal/units"
)

func newRTMA(t *testing.T, budget units.MJ) *RTMA {
	t.Helper()
	r, err := NewRTMA(RTMAConfig{Budget: budget, Radio: radio.Paper3G(), RRC: rrc.Paper3G()})
	if err != nil {
		t.Fatalf("NewRTMA: %v", err)
	}
	return r
}

// looseBudget admits every signal in [-110,-50]: the most expensive slot
// is at -110 dBm where ½(P·v + Pd) = ½(-0.167·329.0+1560+732.83) ≈ 1119 mJ.
const looseBudget = units.MJ(2000)

func TestRTMAValidation(t *testing.T) {
	if _, err := NewRTMA(RTMAConfig{Budget: 0, Radio: radio.Paper3G(), RRC: rrc.Paper3G()}); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := NewRTMA(RTMAConfig{Budget: 100, RRC: rrc.Paper3G()}); err == nil {
		t.Error("missing radio model accepted")
	}
}

func TestRTMAThresholdMonotoneInBudget(t *testing.T) {
	// A looser budget must admit weaker signals (lower threshold).
	prev := units.DBm(math.Inf(-1))
	for _, budget := range []units.MJ{2000, 1100, 1000, 900, 800} {
		r := newRTMA(t, budget)
		th := r.Threshold()
		if th < prev {
			t.Errorf("budget %v: threshold %v below looser budget's %v", budget, th, prev)
		}
		prev = th
	}
}

func TestRTMAThresholdSolvesEq12(t *testing.T) {
	// For a budget inside the representable range, the threshold must
	// satisfy ½(P(φ)v(φ) + Pd) ≈ Φ.
	cfg := RTMAConfig{Budget: 1000, Radio: radio.Paper3G(), RRC: rrc.Paper3G()}
	r, err := NewRTMA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	th := r.Threshold()
	if th < -110 || th > -50 {
		t.Fatalf("threshold %v outside physical range", th)
	}
	got := slotEnergyAt(cfg, th)
	if math.Abs(got-1000) > 1 {
		t.Errorf("slot energy at threshold = %v, want ~1000", got)
	}
}

func TestRTMAAdmitAllWithLooseBudget(t *testing.T) {
	r := newRTMA(t, looseBudget)
	slot := makeSlot(1000, stdUser(400, -110, 3), stdUser(500, -109, 3))
	alloc := make([]int, 2)
	r.Allocate(slot, alloc)
	if alloc[0] == 0 || alloc[1] == 0 {
		t.Errorf("loose budget should admit weak-signal users: %v", alloc)
	}
}

func TestRTMAAdmitNoneWithTinyBudget(t *testing.T) {
	r := newRTMA(t, 1) // even -50 dBm costs ~790 mJ
	slot := makeSlot(1000, stdUser(400, -50, 40), stdUser(500, -55, 40))
	alloc := make([]int, 2)
	r.Allocate(slot, alloc)
	if alloc[0] != 0 || alloc[1] != 0 {
		t.Errorf("tiny budget admitted users: %v", alloc)
	}
}

func TestRTMABlocksWeakSignalUsers(t *testing.T) {
	// Budget that admits -60 but not -100 dBm.
	cfg := RTMAConfig{Budget: 900, Radio: radio.Paper3G(), RRC: rrc.Paper3G()}
	r, err := NewRTMA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if th := r.Threshold(); th <= -100 || th >= -60 {
		t.Fatalf("test premise broken: threshold %v not in (-100,-60)", th)
	}
	slot := makeSlot(1000, stdUser(400, -100, 40), stdUser(500, -60, 40))
	alloc := make([]int, 2)
	r.Allocate(slot, alloc)
	if alloc[0] != 0 {
		t.Errorf("weak user allocated %d, want 0", alloc[0])
	}
	if alloc[1] == 0 {
		t.Error("strong user got nothing")
	}
}

func TestRTMASmallestRateFirstUnderScarcity(t *testing.T) {
	r := newRTMA(t, looseBudget)
	// Capacity: 9 units. Needs: user0 (600KB/s) = 6, user1 (300KB/s) = 3.
	slot := makeSlot(9, stdUser(600, -60, 40), stdUser(300, -60, 40))
	alloc := make([]int, 2)
	r.Allocate(slot, alloc)
	// Round 1 serves the low-rate user first: u1 gets 3, then u0 gets 6.
	if alloc[1] != 3 {
		t.Errorf("low-rate user got %d, want its full need 3", alloc[1])
	}
	if alloc[0]+alloc[1] != 9 {
		t.Errorf("capacity not exhausted: %v", alloc)
	}
}

func TestRTMALowRateUserNeverStarved(t *testing.T) {
	r := newRTMA(t, looseBudget)
	// Extremely scarce: 2 units only. The 300 KB/s user's need is 3, the
	// 600 KB/s user's need is 6; RTMA serves the smaller-rate user first.
	slot := makeSlot(2, stdUser(600, -60, 40), stdUser(300, -60, 40))
	alloc := make([]int, 2)
	r.Allocate(slot, alloc)
	if alloc[1] != 2 {
		t.Errorf("scarce capacity should all go to the low-rate user: %v", alloc)
	}
}

func TestRTMARoundsFillSpareCapacity(t *testing.T) {
	r := newRTMA(t, looseBudget)
	// Plenty of capacity: after needs are met, rounds keep topping up to
	// the link bounds (buffering ahead), as steps 4-15 intend.
	slot := makeSlot(100, stdUser(400, -60, 10), stdUser(500, -60, 10))
	alloc := make([]int, 2)
	r.Allocate(slot, alloc)
	if alloc[0] != 10 || alloc[1] != 10 {
		t.Errorf("spare capacity unused: %v, want [10 10]", alloc)
	}
}

func TestRTMARespectsConstraints(t *testing.T) {
	r := newRTMA(t, looseBudget)
	slot := makeSlot(15,
		stdUser(300, -55, 40), stdUser(450, -70, 20), stdUser(600, -90, 12),
		stdUser(350, -100, 8), stdUser(550, -65, 30),
	)
	alloc := make([]int, 5)
	r.Allocate(slot, alloc)
	if err := slot.Validate(alloc); err != nil {
		t.Errorf("RTMA violated constraints: %v", err)
	}
	total := 0
	for _, a := range alloc {
		total += a
	}
	if total != 15 {
		t.Errorf("capacity underused under contention: %d/15", total)
	}
}

func TestRTMAIgnoresInactiveAndZeroLink(t *testing.T) {
	r := newRTMA(t, looseBudget)
	inactive := stdUser(400, -60, 40)
	inactive.Active = false
	zeroLink := stdUser(400, -60, 0)
	slot := makeSlot(100, inactive, zeroLink, stdUser(400, -60, 10))
	alloc := make([]int, 3)
	r.Allocate(slot, alloc)
	if alloc[0] != 0 || alloc[1] != 0 {
		t.Errorf("allocated to inactive/zero-link users: %v", alloc)
	}
	if alloc[2] != 10 {
		t.Errorf("healthy user got %d, want 10", alloc[2])
	}
}

func TestRTMATerminatesWithZeroRateUser(t *testing.T) {
	r := newRTMA(t, looseBudget)
	slot := makeSlot(10, stdUser(0, -60, 40))
	alloc := make([]int, 1)
	// A zero-rate user has ϕ_need = 0; the allocation loop must still
	// terminate (the test binary deadline catches an infinite loop) and
	// use the spare capacity.
	r.Allocate(slot, alloc)
	if alloc[0] != 10 {
		t.Errorf("zero-rate user should still absorb capacity: %v", alloc)
	}
}

func TestRTMAZeroNeedDrainIsLinear(t *testing.T) {
	// Regression: zero-need users used to be granted max(need,1) = 1 unit
	// per water-filling round, so a cell full of idle (zero-rate) users
	// with a large capacity took O(capacity × N) rounds to drain. They now
	// absorb a whole link bound in one grant, so this finishes instantly;
	// the test binary deadline catches a return to the degenerate rounds.
	r := newRTMA(t, looseBudget)
	const n = 500
	users := make([]user, n)
	for i := range users {
		users[i] = stdUser(0, -60, 5000)
	}
	slot := makeSlot(2_500_000, users...)
	alloc := make([]int, n)
	r.Allocate(slot, alloc)
	total := 0
	for i, a := range alloc {
		if a != 5000 {
			t.Fatalf("zero-need user %d got %d, want its full link bound 5000", i, a)
		}
		total += a
	}
	if total != n*5000 {
		t.Errorf("total allocation %d, want %d", total, n*5000)
	}
}

func TestRTMANeedyServedBeforeZeroNeed(t *testing.T) {
	// Zero-need users only soak up what the needy leave behind: under
	// scarcity they must get nothing.
	r := newRTMA(t, looseBudget)
	// Capacity 6; the needy 600 KB/s user needs 6 per slot.
	slot := makeSlot(6, stdUser(0, -60, 40), stdUser(600, -60, 40))
	alloc := make([]int, 2)
	r.Allocate(slot, alloc)
	if alloc[1] != 6 {
		t.Errorf("needy user got %d, want all 6 units", alloc[1])
	}
	if alloc[0] != 0 {
		t.Errorf("zero-need user got %d under scarcity, want 0", alloc[0])
	}
}

func TestRTMAZeroNeedDrainInIndexOrder(t *testing.T) {
	// With spare capacity for only part of the zero-need pool, the drain
	// serves ascending user indices.
	r := newRTMA(t, looseBudget)
	slot := makeSlot(15, stdUser(0, -60, 10), stdUser(0, -60, 10), stdUser(0, -60, 10))
	alloc := make([]int, 3)
	r.Allocate(slot, alloc)
	if alloc[0] != 10 || alloc[1] != 5 || alloc[2] != 0 {
		t.Errorf("drain order wrong: %v, want [10 5 0]", alloc)
	}
}

func TestBudgetForAlpha(t *testing.T) {
	b, err := BudgetForAlpha(500, 1.2)
	if err != nil || b != 600 {
		t.Errorf("BudgetForAlpha = %v, %v; want 600", b, err)
	}
	if _, err := BudgetForAlpha(0, 1); err == nil {
		t.Error("zero default energy accepted")
	}
	if _, err := BudgetForAlpha(500, 0); err == nil {
		t.Error("zero alpha accepted")
	}
	if _, err := BudgetForAlpha(500, math.NaN()); err == nil {
		t.Error("NaN alpha accepted")
	}
}

// Property: RTMA never violates Eq. (1)/(2) and never allocates to users
// below the threshold.
func TestRTMAConstraintsProperty(t *testing.T) {
	r := newRTMA(t, 950)
	th := r.Threshold()
	f := func(rates []uint16, sigs []uint8, capRaw uint16) bool {
		n := len(rates)
		if n == 0 || n > 12 {
			return true
		}
		if len(sigs) < n {
			return true
		}
		users := make([]user, n)
		for i := range users {
			sig := units.DBm(-110 + float64(sigs[i]%61))
			users[i] = stdUser(units.KBps(rates[i]%600+100), sig, int(rates[i]%50))
		}
		slot := makeSlot(int(capRaw%300), users...)
		alloc := make([]int, n)
		r.Allocate(slot, alloc)
		if err := slot.Validate(alloc); err != nil {
			return false
		}
		for i, a := range alloc {
			if a > 0 && slot.sigAt(i) < th {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRTMAName(t *testing.T) {
	if newRTMA(t, looseBudget).Name() != "RTMA" {
		t.Error("name mismatch")
	}
}
