package sched

import (
	"math"
	"testing"
	"testing/quick"

	"jointstream/internal/rng"
	"jointstream/internal/rrc"
	"jointstream/internal/units"
)

func newEMA(t testing.TB, v float64) *EMA {
	t.Helper()
	e, err := NewEMA(EMAConfig{V: v, RRC: rrc.Paper3G()})
	if err != nil {
		t.Fatalf("NewEMA: %v", err)
	}
	return e
}

func TestEMAValidation(t *testing.T) {
	if _, err := NewEMA(EMAConfig{V: 0, RRC: rrc.Paper3G()}); err == nil {
		t.Error("zero V accepted")
	}
	if _, err := NewEMA(EMAConfig{V: math.NaN(), RRC: rrc.Paper3G()}); err == nil {
		t.Error("NaN V accepted")
	}
	if _, err := NewEMA(EMAConfig{V: 1, RRC: rrc.Profile{Pd: -1}}); err == nil {
		t.Error("invalid RRC profile accepted")
	}
}

func TestEMAName(t *testing.T) {
	if newEMA(t, 1).Name() != "EMA" {
		t.Error("name mismatch")
	}
	if newEMA(t, 2.5).V() != 2.5 {
		t.Error("V accessor mismatch")
	}
}

func TestEMARespectsConstraints(t *testing.T) {
	e := newEMA(t, 1)
	slot := makeSlot(15,
		stdUser(300, -55, 40), stdUser(450, -70, 20), stdUser(600, -90, 12))
	alloc := make([]int, 3)
	e.Allocate(slot, alloc)
	if err := slot.Validate(alloc); err != nil {
		t.Errorf("EMA violated constraints: %v", err)
	}
}

func TestEMASkipsInactive(t *testing.T) {
	e := newEMA(t, 1)
	inactive := stdUser(400, -60, 40)
	inactive.Active = false
	slot := makeSlot(100, inactive, stdUser(400, -60, 10))
	alloc := make([]int, 2)
	e.Allocate(slot, alloc)
	if alloc[0] != 0 {
		t.Errorf("inactive user allocated %d", alloc[0])
	}
}

// The DP must match the brute-force optimum of Σ f(i, ϕ_i).
func TestEMADPMatchesBruteForce(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	for _, seed := range seeds {
		src := rng.New(seed)
		e := newEMA(t, 0.5+src.Float64()*3)
		n := 2 + src.Intn(3)
		users := make([]user, n)
		for i := range users {
			sig := units.DBm(src.Uniform(-110, -50))
			users[i] = stdUser(units.KBps(src.Uniform(300, 600)), sig, 1+src.Intn(5))
			if src.Bool(0.5) {
				users[i].NeverActive = false
				users[i].TailGap = units.Seconds(src.Uniform(0, 8))
			}
		}
		capacity := 1 + src.Intn(8)
		slot := makeSlot(capacity, users...)

		// Pre-warm queues so f has nontrivial drift terms.
		warm := makeSlot(0, users...)
		e.Allocate(warm, make([]int, n)) // capacity 0: everyone skipped, queues += tau
		for i := 0; i < int(seed%3); i++ {
			e.Allocate(warm, make([]int, n))
		}

		// Capture cost table via slotCost before Allocate mutates queues.
		maxUnits := make([]int, n)
		costs := make([][]float64, n)
		for i := range users {
			u := users[i]
			maxUnits[i] = u.MaxUnits
			costs[i] = make([]float64, u.MaxUnits+1)
			for phi := 0; phi <= u.MaxUnits; phi++ {
				costs[i][phi] = e.slotCost(slot, i, phi)
			}
		}
		wantAlloc, wantCost := BruteForceObjective(maxUnits, capacity, func(i, phi int) float64 {
			return costs[i][phi]
		})

		alloc := make([]int, n)
		e.Allocate(slot, alloc)
		var gotCost float64
		for i := range alloc {
			gotCost += costs[i][alloc[i]]
		}
		if math.Abs(gotCost-wantCost) > 1e-9*(1+math.Abs(wantCost)) {
			t.Errorf("seed %d: DP cost %v != brute force %v (alloc %v vs %v)",
				seed, gotCost, wantCost, alloc, wantAlloc)
		}
		if err := slot.Validate(alloc); err != nil {
			t.Errorf("seed %d: invalid DP allocation: %v", seed, err)
		}
	}
}

func TestEMAQueueRecursionEq16(t *testing.T) {
	e := newEMA(t, 1)
	u := stdUser(500, -60, 10)
	slot := makeSlot(100, u)
	alloc := make([]int, 1)
	e.Allocate(slot, alloc)
	// Eq. (16): PC(1) = PC(0) + tau - t(0), t = alloc*unit/rate.
	want := 1.0 - float64(alloc[0])*100/500
	if math.Abs(float64(e.Queue(0))-want) > 1e-9 {
		t.Errorf("queue = %v, want %v (alloc=%d)", e.Queue(0), want, alloc[0])
	}
}

func TestEMAQueueFrozenForInactive(t *testing.T) {
	e := newEMA(t, 1)
	u := stdUser(500, -60, 10)
	u.Active = false
	slot := makeSlot(100, u)
	e.Allocate(slot, make([]int, 1))
	if e.Queue(0) != 0 {
		t.Errorf("inactive user's queue advanced to %v", e.Queue(0))
	}
	if e.Queue(99) != 0 {
		t.Error("out-of-range queue not zero")
	}
}

// Starving a user grows its queue until EMA must serve it: the queue
// mechanism enforces long-run rebuffering control.
func TestEMAEventuallyServesBackloggedUser(t *testing.T) {
	// V = 0.01 with a weak −105 dBm channel: one unit costs
	// V·E ≈ 0.01·220 mJ ≈ 2.2, while each skipped slot adds τ = 1 s of
	// queue pressure worth PC·t ≈ 0.25·PC per unit; EMA must flip to
	// serving within ~10 slots.
	e := newEMA(t, 0.01)
	served := -1
	for n := 0; n < 200; n++ {
		u := stdUser(400, -105, 10) // weak, expensive channel
		u.NeverActive = false
		u.TailGap = 100 // tail fully drained: skipping is energy-free
		slot := makeSlot(100, u)
		alloc := make([]int, 1)
		e.Allocate(slot, alloc)
		if alloc[0] > 0 {
			served = n
			break
		}
	}
	if served < 0 {
		t.Fatal("EMA never served a backlogged user in 200 slots")
	}
	if served == 0 {
		t.Error("EMA served at queue 0; drift term should not reward that")
	}
}

// With a huge V, EMA should defer transmission on expensive channels when
// the buffer is comfortable (negative queue).
func TestEMADefersOnExpensiveChannelWhenBuffered(t *testing.T) {
	e := newEMA(t, 0.05)
	// Build queue pressure with a few capacity-0 slots, then offer a cheap
	// channel: EMA should over-deliver (work ahead), driving the queue
	// negative.
	for i := 0; i < 5; i++ {
		starved := stdUser(400, -50, 40)
		e.Allocate(makeSlot(0, starved), make([]int, 1))
	}
	rich := stdUser(400, -50, 40)
	slot := makeSlot(100, rich)
	alloc := make([]int, 1)
	e.Allocate(slot, alloc)
	if alloc[0] == 0 {
		t.Fatal("EMA refused cheap bytes under queue pressure")
	}
	if e.Queue(0) >= 0 {
		t.Fatalf("queue should be negative after working ahead: %v (alloc=%d)", e.Queue(0), alloc[0])
	}
	// Now the channel turns expensive; with buffered headroom (negative
	// queue) and no pending tail, EMA skips the slot.
	poor := stdUser(400, -110, 40)
	poor.NeverActive = false
	poor.TailGap = 100 // tail already drained: skipping is energy-free
	slot2 := makeSlot(100, poor)
	alloc2 := make([]int, 1)
	e.Allocate(slot2, alloc2)
	if alloc2[0] != 0 {
		t.Errorf("EMA transmitted %d units on an expensive channel with buffered headroom", alloc2[0])
	}
}

// Tail awareness: if skipping this slot burns almost as much tail energy
// as transmitting would cost, EMA should prefer to transmit (the ON-OFF
// pathology it is designed to avoid). We construct costs accordingly.
func TestEMATailAwareness(t *testing.T) {
	e := newEMA(t, 1)
	u := stdUser(400, -50, 4) // cheap channel: 4 units = 400KB ≈ 0.2 mJ/KB · 400 = ~80 mJ
	u.NeverActive = false
	u.TailGap = 0 // skipping burns Pd·τ ≈ 733 mJ of tail
	slot := makeSlot(100, u)
	alloc := make([]int, 1)
	e.Allocate(slot, alloc)
	if alloc[0] == 0 {
		t.Error("EMA skipped although the tail made skipping costlier than sending")
	}
}

// Property: EMA allocations always satisfy Eq. (1)/(2) across random slots
// and evolving queues.
func TestEMAConstraintsProperty(t *testing.T) {
	e := newEMA(t, 2)
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
			users[i] = stdUser(units.KBps(rates[i]%600+100), sig, int(rates[i]%30))
		}
		slot := makeSlot(int(capRaw%200), users...)
		alloc := make([]int, n)
		e.Allocate(slot, alloc)
		return slot.Validate(alloc) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEMA40Users(b *testing.B) {
	e, err := NewEMA(EMAConfig{V: 1, RRC: rrc.Paper3G()})
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(1)
	users := make([]user, 40)
	for i := range users {
		users[i] = stdUser(units.KBps(src.Uniform(300, 600)), units.DBm(src.Uniform(-110, -50)), 20)
	}
	slot := makeSlot(200, users...)
	alloc := make([]int, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range alloc {
			alloc[j] = 0
		}
		e.Allocate(slot, alloc)
	}
}
