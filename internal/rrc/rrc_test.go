package rrc

import (
	"math"
	"testing"
	"testing/quick"

	"jointstream/internal/units"
)

func TestPaper3GConstants(t *testing.T) {
	p := Paper3G()
	if p.Pd != 732.83 || p.Pf != 388.88 {
		t.Errorf("powers = %v/%v, want 732.83/388.88", p.Pd, p.Pf)
	}
	if p.T1 != 3.29 || p.T2 != 4.02 {
		t.Errorf("timers = %v/%v, want 3.29/4.02", p.T1, p.T2)
	}
}

func TestTailEnergyEq4Segments(t *testing.T) {
	p := Paper3G()
	cases := []struct {
		t    units.Seconds
		want float64 // mJ
	}{
		{0, 0},
		{1, 732.83},
		{3.29, 732.83 * 3.29},                  // boundary T1
		{5, 732.83*3.29 + 388.88*(5-3.29)},     // inside FACH window
		{7.31, 732.83*3.29 + 388.88*4.02},      // boundary T1+T2
		{100, 732.83*3.29 + 388.88*4.02},       // long idle: saturated
		{2.5, 732.83 * 2.5},                    // inside DCH window
		{3.3, 732.83*3.29 + 388.88*(3.3-3.29)}, // just past T1
		{7.4, 732.83*3.29 + 388.88*4.02},       // just past T1+T2
	}
	for _, c := range cases {
		got := float64(p.TailEnergy(c.t))
		if math.Abs(got-c.want) > 1e-6 {
			t.Errorf("TailEnergy(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestTailEnergyMonotoneNonDecreasing(t *testing.T) {
	p := Paper3G()
	prev := units.MJ(-1)
	for ti := units.Seconds(0); ti < 12; ti += 0.01 {
		e := p.TailEnergy(ti)
		if e < prev {
			t.Fatalf("tail energy decreased at t=%v", ti)
		}
		prev = e
	}
}

func TestMaxTailEnergy(t *testing.T) {
	p := Paper3G()
	want := 732.83*3.29 + 388.88*4.02
	if got := float64(p.MaxTailEnergy()); math.Abs(got-want) > 1e-9 {
		t.Errorf("MaxTailEnergy = %v, want %v", got, want)
	}
	if p.TailEnergy(1e9) != p.MaxTailEnergy() {
		t.Error("TailEnergy should saturate at MaxTailEnergy")
	}
}

func TestTailEnergyNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative gap")
		}
	}()
	Paper3G().TailEnergy(-1)
}

func TestLTEProfileSkipsFACH(t *testing.T) {
	p := LTE()
	if got := p.TailDrainedAfter(); got != p.T1 {
		t.Errorf("LTE TailDrainedAfter = %v, want T1 = %v (no FACH)", got, p.T1)
	}
	if got := p.TailEnergy(p.T1 + 5); got != p.TailEnergy(p.T1) {
		t.Errorf("LTE tail burned %v past T1, want nothing (no FACH)", got-p.TailEnergy(p.T1))
	}
	want := float64(p.Pd) * float64(p.T1)
	if got := float64(p.MaxTailEnergy()); math.Abs(got-want) > 1e-9 {
		t.Errorf("LTE MaxTailEnergy = %v, want %v", got, want)
	}
}

func TestValidate(t *testing.T) {
	good := Paper3G()
	if err := good.Validate(); err != nil {
		t.Errorf("valid profile rejected: %v", err)
	}
	bad := []Profile{
		{Name: "negP", Pd: -1},
		{Name: "negPf", Pf: -1},
		{Name: "negT1", T1: -1},
		{Name: "negT2", T2: -1},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("profile %q accepted, want error", p.Name)
		}
	}
}

// The Machine tests below drive Tail, the RRC state machine one device
// carries slot by slot.

func TestMachineNeverActiveBurnsNothing(t *testing.T) {
	p := Paper3G()
	var m Tail
	if !m.Drained(p.TailDrainedAfter()) {
		t.Error("fresh tail not drained")
	}
	for i := 0; i < 10; i++ {
		if e := m.IdleSlot(&p, 1); e != 0 {
			t.Fatalf("never-active tail burned %v", e)
		}
	}
	if m.Gap != 0 {
		t.Errorf("never-active tail aged its gap to %v", m.Gap)
	}
}

func TestMachineTransferPromotesAndResets(t *testing.T) {
	p := Paper3G()
	var m Tail
	m.Transfer()
	if m.Drained(p.TailDrainedAfter()) {
		t.Error("tail drained right after a transfer")
	}
	m.IdleSlot(&p, 1)
	m.IdleSlot(&p, 1)
	if m.Gap != 2 {
		t.Errorf("gap = %v, want 2", m.Gap)
	}
	m.Transfer()
	if m.Gap != 0 {
		t.Errorf("gap after transfer = %v, want 0", m.Gap)
	}
}

func TestMachineWalksThroughStates(t *testing.T) {
	p := Paper3G()
	var m Tail
	m.Transfer()
	// Seven idle seconds leave the 7.31 s tail burning; the eighth drains it.
	for i := 1; i <= 9; i++ {
		m.IdleSlot(&p, 1)
		if got, want := m.Drained(p.TailDrainedAfter()), i >= 8; got != want {
			t.Errorf("drained after %ds idle = %v, want %v", i, got, want)
		}
	}
}

// Incremental per-slot tail energy must sum to the closed form of Eq. (4).
func TestMachineMatchesClosedForm(t *testing.T) {
	for _, p := range []Profile{Paper3G(), LTE()} {
		var m Tail
		m.Transfer()
		var sum units.MJ
		for i := 0; i < 30; i++ {
			sum += m.IdleSlot(&p, 1)
			want := p.TailEnergy(units.Seconds(i + 1))
			if math.Abs(float64(sum-want)) > 1e-6 {
				t.Fatalf("%s: cumulative slot energy after %ds = %v, closed form %v",
					p.Name, i+1, sum, want)
			}
		}
	}
}

// The same equivalence must hold for fractional slot lengths.
func TestMachineMatchesClosedFormFractionalTau(t *testing.T) {
	p := Paper3G()
	var m Tail
	m.Transfer()
	var sum units.MJ
	tau := units.Seconds(0.37)
	for i := 0; i < 50; i++ {
		sum += m.IdleSlot(&p, tau)
	}
	want := p.TailEnergy(units.Seconds(50 * 0.37))
	if math.Abs(float64(sum-want)) > 1e-6 {
		t.Errorf("fractional-slot sum = %v, want %v", sum, want)
	}
}

func TestMachineIdleSlotNegativePanics(t *testing.T) {
	p := Paper3G()
	var m Tail
	m.Transfer()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative tau")
		}
	}()
	m.IdleSlot(&p, -1)
}

func TestTailEnergySaturatesAfterFullTail(t *testing.T) {
	p := Paper3G()
	var m Tail
	m.Transfer()
	// Burn the whole tail.
	for i := 0; i < 10; i++ {
		m.IdleSlot(&p, 1)
	}
	// Further idle slots must be free.
	if e := m.IdleSlot(&p, 1); e != 0 {
		t.Errorf("post-tail idle slot burned %v, want 0", e)
	}
	if !m.Drained(p.TailDrainedAfter()) {
		t.Error("tail not drained after the full tail")
	}
}

// Property: for arbitrary (valid) profiles and gaps, the incremental
// tail agrees with the closed form, and energy is within [0, Max].
func TestMachineClosedFormProperty(t *testing.T) {
	f := func(pdRaw, pfRaw, t1Raw, t2Raw uint16, slots uint8) bool {
		p := Profile{
			Name: "prop",
			Pd:   units.MW(float64(pdRaw%2000) + 1),
			Pf:   units.MW(float64(pfRaw % 1000)),
			T1:   units.Seconds(float64(t1Raw%100) / 10),
			T2:   units.Seconds(float64(t2Raw%100) / 10),
		}
		if p.Validate() != nil {
			return false
		}
		var m Tail
		m.Transfer()
		var sum units.MJ
		n := int(slots%40) + 1
		for i := 0; i < n; i++ {
			e := m.IdleSlot(&p, 0.5)
			if e < 0 {
				return false
			}
			sum += e
		}
		want := p.TailEnergy(units.Seconds(float64(n) * 0.5))
		if math.Abs(float64(sum-want)) > 1e-6 {
			return false
		}
		if m.Drained(p.TailDrainedAfter()) != (m.Gap >= p.T1+p.T2) {
			return false
		}
		return sum <= p.MaxTailEnergy()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a transfer in the middle of a tail restarts the full tail.
func TestTransferRestartsTailProperty(t *testing.T) {
	f := func(idleBefore uint8) bool {
		p := Paper3G()
		var m Tail
		m.Transfer()
		for i := 0; i < int(idleBefore%10); i++ {
			m.IdleSlot(&p, 1)
		}
		m.Transfer()
		var sum units.MJ
		for i := 0; i < 20; i++ {
			sum += m.IdleSlot(&p, 1)
		}
		return math.Abs(float64(sum-p.MaxTailEnergy())) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The profile is the caller's, not the tail's: one Tail value priced under
// two profiles burns what each profile says.
func TestMachineProfileAndEverActive(t *testing.T) {
	var m Tail
	if m.EverActive {
		t.Error("fresh tail reports activity")
	}
	m.Transfer()
	if !m.EverActive {
		t.Error("tail not active after transfer")
	}
	g3, lte := Paper3G(), LTE()
	a, b := m, m
	if got, want := a.IdleSlot(&g3, 1), g3.TailEnergy(1); got != want {
		t.Errorf("3G slot burned %v, want %v", got, want)
	}
	if got, want := b.IdleSlot(&lte, 1), lte.TailEnergy(1); got != want {
		t.Errorf("LTE slot burned %v, want %v", got, want)
	}
}
