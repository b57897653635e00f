package oracle

import (
	"math"
	"testing"

	"jointstream/internal/radio"
	"jointstream/internal/rng"
	"jointstream/internal/rrc"
	"jointstream/internal/signal"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

func testConfig(horizon int) Config {
	return Config{
		Tau:      1,
		Unit:     100,
		Capacity: 5000,
		Horizon:  horizon,
		Radio:    radio.Paper3G(),
	}
}

func constSession(id int, size units.KB, sig units.DBm) *workload.Session {
	return &workload.Session{
		ID:       id,
		Size:     size,
		BaseRate: 400,
		Signal:   signal.Constant(sig, signal.DefaultBounds),
	}
}

func TestValidate(t *testing.T) {
	if err := testConfig(100).validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Tau: 0, Unit: 100, Capacity: 1, Horizon: 1, Radio: radio.Paper3G()},
		{Tau: 1, Unit: 0, Capacity: 1, Horizon: 1, Radio: radio.Paper3G()},
		{Tau: 1, Unit: 100, Capacity: 0, Horizon: 1, Radio: radio.Paper3G()},
		{Tau: 1, Unit: 100, Capacity: 1, Horizon: 0, Radio: radio.Paper3G()},
		{Tau: 1, Unit: 100, Capacity: 1, Horizon: 1},
	}
	for i, cfg := range bad {
		if err := cfg.validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := Compute(testConfig(10), nil); err == nil {
		t.Error("empty sessions accepted")
	}
}

func TestConstantChannelExactEnergy(t *testing.T) {
	// One user on a constant channel: both bounds equal size × P(sig).
	cfg := testConfig(100)
	s := constSession(0, 2000, -60)
	b, err := Compute(cfg, []*workload.Session{s})
	if err != nil {
		t.Fatal(err)
	}
	perKB := float64(radio.Paper3G().Power.EnergyPerKB(-60))
	want := 2000 * perKB
	if math.Abs(float64(b.LowerMJ)-want) > 1e-6 {
		t.Errorf("lower = %v, want %v", b.LowerMJ, want)
	}
	if math.Abs(float64(b.UpperMJ)-want) > 1e-6 {
		t.Errorf("upper = %v, want %v", b.UpperMJ, want)
	}
	if !b.Feasible {
		t.Error("trivially feasible instance reported infeasible")
	}
}

func TestLowerNeverExceedsUpper(t *testing.T) {
	cfg := testConfig(400)
	wl, err := workload.Generate(workload.PaperDefaults(6), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range wl {
		s.Size = 30 * units.Megabyte
	}
	b, err := Compute(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if b.LowerMJ > b.UpperMJ+1e-6 {
		t.Errorf("lower %v exceeds upper %v", b.LowerMJ, b.UpperMJ)
	}
	if !b.Feasible {
		t.Error("expected feasible at this load")
	}
}

func TestCheapSlotsPreferred(t *testing.T) {
	// A two-phase channel: strong for the first 10 slots, weak after.
	// With a horizon that includes both phases and a small demand, the
	// bound must price everything at the strong phase.
	vals := make([]units.DBm, 40)
	for i := range vals {
		if i < 10 {
			vals[i] = -50
		} else {
			vals[i] = -110
		}
	}
	tr, err := signal.FromSlice(vals)
	if err != nil {
		t.Fatal(err)
	}
	s := &workload.Session{ID: 0, Size: 4000, BaseRate: 400, Signal: tr}
	b, err := Compute(testConfig(40), []*workload.Session{s})
	if err != nil {
		t.Fatal(err)
	}
	cheap := float64(radio.Paper3G().Power.EnergyPerKB(-50))
	want := 4000 * cheap
	if math.Abs(float64(b.LowerMJ)-want) > 1e-6 {
		t.Errorf("lower = %v, want all-cheap %v", b.LowerMJ, want)
	}
}

func TestCapacityCouplingRaisesUpper(t *testing.T) {
	// Two users share one brief cheap window that fits only one of them:
	// the relaxed lower bound prices both cheap; the feasible upper bound
	// must pay the expensive price for one.
	vals := make([]units.DBm, 20)
	for i := range vals {
		if i == 0 {
			vals[i] = -50
		} else {
			vals[i] = -110
		}
	}
	tr, err := signal.FromSlice(vals)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(20)
	cfg.Capacity = 2000 // 20 units per slot; each user wants 20 units
	mk := func(id int) *workload.Session {
		return &workload.Session{ID: id, Size: 2000, BaseRate: 400, Signal: tr}
	}
	b, err := Compute(cfg, []*workload.Session{mk(0), mk(1)})
	if err != nil {
		t.Fatal(err)
	}
	if b.UpperMJ <= b.LowerMJ {
		t.Errorf("expected capacity coupling to open a gap: lower %v upper %v", b.LowerMJ, b.UpperMJ)
	}
}

func TestInfeasibleHorizon(t *testing.T) {
	// Demand that cannot fit the horizon even uncapacitated errors on the
	// lower bound.
	s := constSession(0, 1e9, -110) // ~329 KB/s for 10 slots << 1 TB
	if _, err := Compute(testConfig(10), []*workload.Session{s}); err == nil {
		t.Error("impossible demand accepted")
	}
}

func TestUpperBoundInfeasibleFlag(t *testing.T) {
	// Feasible per-user (lower bound fine) but capacity-starved overall:
	// two users, each needs the whole capacity of every slot.
	cfg := testConfig(10)
	cfg.Capacity = 400              // 4 units/slot
	a := constSession(0, 4000, -60) // needs 40 units = all 10 slots alone
	b2 := constSession(1, 4000, -60)
	b, err := Compute(cfg, []*workload.Session{a, b2})
	if err != nil {
		t.Fatal(err)
	}
	if b.Feasible {
		t.Error("capacity-starved instance reported feasible")
	}
}

func TestStartSlotRespected(t *testing.T) {
	// A user starting mid-horizon cannot use earlier cheap slots.
	vals := make([]units.DBm, 20)
	for i := range vals {
		if i < 10 {
			vals[i] = -50
		} else {
			vals[i] = -110
		}
	}
	tr, _ := signal.FromSlice(vals)
	s := &workload.Session{ID: 0, Size: 1000, BaseRate: 400, Signal: tr, StartSlot: 10}
	b, err := Compute(testConfig(20), []*workload.Session{s})
	if err != nil {
		t.Fatal(err)
	}
	expensive := float64(radio.Paper3G().Power.EnergyPerKB(-110))
	want := 1000 * expensive
	if math.Abs(float64(b.LowerMJ)-want) > 1e-6 {
		t.Errorf("lower = %v, want all-expensive %v (start slot ignored?)", b.LowerMJ, want)
	}
}

func TestComputePlanMatchesBounds(t *testing.T) {
	cfg := testConfig(200)
	wl, err := workload.Generate(workload.PaperDefaults(4), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range wl {
		s.Size = 10 * units.Megabyte
	}
	plan, err := ComputePlan(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compute(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Bounds != b {
		t.Errorf("plan bounds %+v != compute bounds %+v", plan.Bounds, b)
	}
	if len(plan.Alloc) != cfg.Horizon {
		t.Fatalf("plan horizon %d, want %d", len(plan.Alloc), cfg.Horizon)
	}
	// The plan must deliver each user's full demand and respect per-slot
	// capacity.
	capUnits := int(float64(cfg.Capacity) / float64(cfg.Unit))
	delivered := make([]float64, len(wl))
	for n, row := range plan.Alloc {
		total := 0
		for u, a := range row {
			if a < 0 {
				t.Fatalf("negative grant at slot %d", n)
			}
			total += a
			delivered[u] += float64(a) * float64(cfg.Unit)
		}
		if total > capUnits {
			t.Fatalf("slot %d over capacity: %d > %d", n, total, capUnits)
		}
	}
	for u, d := range delivered {
		// The last shard may overshoot by less than one unit.
		if d < float64(wl[u].Size) {
			t.Errorf("user %d plan delivers %v of %v KB", u, d, float64(wl[u].Size))
		}
	}
}

// TestTailAccountingModes pins the two tail modes of the upper bound
// against each other on a scenario whose omniscient plan provably idles
// exactly one slot: a single user whose channel is cheap at slots 0 and
// 2 only, with demand sized to exactly those two slots' link capacity.
// The legacy mode must ignore the idle slot; the accounting mode must
// charge it the closed-form Eq. (4) increment Pd·τ (τ < T1) plus the
// full post-transfer drain MaxTailEnergy (the horizon extends well past
// T1+T2, as the engine's playback lag does), and the lower bound must
// be identical in both modes.
func TestTailAccountingModes(t *testing.T) {
	vals := make([]units.DBm, 20)
	for i := range vals {
		vals[i] = -110
	}
	vals[0], vals[2] = -50, -50
	tr, err := signal.FromSlice(vals)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(20)
	cfg.Capacity = 50000 // never binding: the per-slot link cap decides
	prof := rrc.Paper3G()

	link := cfg.Radio.Throughput.Throughput(-50)
	mu := int(float64(link) * float64(cfg.Tau) / float64(cfg.Unit))
	if mu < 1 {
		t.Fatalf("test premise: cheap slot carries %d units", mu)
	}
	s := &workload.Session{
		ID: 0, BaseRate: 400, Signal: tr,
		Size: units.KB(float64(2*mu) * float64(cfg.Unit)),
	}

	ignore, err := Compute(cfg, []*workload.Session{s})
	if err != nil {
		t.Fatal(err)
	}
	acctCfg := cfg
	acctCfg.RRC = prof
	acctCfg.AccountTail = true
	account, err := Compute(acctCfg, []*workload.Session{s})
	if err != nil {
		t.Fatal(err)
	}

	if ignore.TailMJ != 0 {
		t.Errorf("legacy mode reports tail %v, want 0", ignore.TailMJ)
	}
	// One mid-gap idle slot plus the complete trailing drain.
	wantTail := float64(prof.Pd.Energy(cfg.Tau)) + float64(prof.MaxTailEnergy())
	if math.Abs(float64(account.TailMJ)-wantTail) > 1e-9 {
		t.Errorf("accounted tail = %v, want idle slot + drain = %v", account.TailMJ, wantTail)
	}
	if got, want := float64(account.UpperMJ), float64(ignore.UpperMJ)+wantTail; math.Abs(got-want) > 1e-9 {
		t.Errorf("accounted upper = %v, want transmission %v + tail %v", got, ignore.UpperMJ, wantTail)
	}
	if account.LowerMJ != ignore.LowerMJ {
		t.Errorf("lower bound moved with tail mode: %v vs %v", account.LowerMJ, ignore.LowerMJ)
	}
}

// TestWorstBoundDominates asserts the dominance certificate closes over
// the optimistic bracket on a random workload, in both tail modes.
func TestWorstBoundDominates(t *testing.T) {
	cfg := testConfig(400)
	wl, err := workload.Generate(workload.PaperDefaults(6), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range wl {
		s.Size = 20 * units.Megabyte
	}
	for _, accountTail := range []bool{false, true} {
		c := cfg
		if accountTail {
			c.RRC = rrc.Paper3G()
			c.AccountTail = true
		}
		b, err := Compute(c, wl)
		if err != nil {
			t.Fatal(err)
		}
		if b.WorstMJ < b.UpperMJ {
			t.Errorf("accountTail=%v: worst %v below upper %v", accountTail, b.WorstMJ, b.UpperMJ)
		}
		if b.WorstMJ < b.LowerMJ {
			t.Errorf("accountTail=%v: worst %v below lower %v", accountTail, b.WorstMJ, b.LowerMJ)
		}
	}
}

// TestLowerBoundDelivered checks the per-run certificate degenerates
// correctly: full delivery reproduces LowerMJ, partial delivery costs
// no more, zero delivery costs nothing, and shape mismatches error.
func TestLowerBoundDelivered(t *testing.T) {
	cfg := testConfig(400)
	wl, err := workload.Generate(workload.PaperDefaults(4), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range wl {
		s.Size = 10 * units.Megabyte
	}
	b, err := Compute(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}

	full := make([]units.KB, len(wl))
	half := make([]units.KB, len(wl))
	zero := make([]units.KB, len(wl))
	for i, s := range wl {
		full[i] = s.Size
		half[i] = s.Size / 2
	}
	gotFull, err := LowerBoundDelivered(cfg, wl, full)
	if err != nil {
		t.Fatal(err)
	}
	if gotFull != b.LowerMJ {
		t.Errorf("full delivery bound %v != LowerMJ %v", gotFull, b.LowerMJ)
	}
	gotHalf, err := LowerBoundDelivered(cfg, wl, half)
	if err != nil {
		t.Fatal(err)
	}
	if gotHalf <= 0 || gotHalf >= gotFull {
		t.Errorf("half delivery bound %v outside (0, %v)", gotHalf, gotFull)
	}
	gotZero, err := LowerBoundDelivered(cfg, wl, zero)
	if err != nil {
		t.Fatal(err)
	}
	if gotZero != 0 {
		t.Errorf("zero delivery bound %v, want 0", gotZero)
	}
	if _, err := LowerBoundDelivered(cfg, wl, full[:1]); err == nil {
		t.Error("mismatched delivered length accepted")
	}
	half[0] = -1
	if _, err := LowerBoundDelivered(cfg, wl, half); err == nil {
		t.Error("negative delivered accepted")
	}
}
