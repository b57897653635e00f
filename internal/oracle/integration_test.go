package oracle

import (
	"math"
	"testing"

	"jointstream/internal/cell"
	"jointstream/internal/rng"
	"jointstream/internal/sched"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// Plan is the omniscient greedy schedule behind the upper bound:
// Alloc[n][u] is the data-unit grant of user u in slot n. Replayed through
// the real simulator (planned) it measures what the clairvoyant energy
// plan does to playback — it ignores buffer dynamics entirely, so its
// rebuffering can be arbitrarily bad.
type Plan struct {
	Alloc  [][]int
	Bounds Bounds
}

// ComputePlan evaluates the bounds and returns the upper bound's schedule.
func ComputePlan(cfg Config, sessions []*workload.Session) (*Plan, error) {
	b, alloc, err := compute(cfg, sessions, true)
	if err != nil {
		return nil, err
	}
	return &Plan{Alloc: alloc, Bounds: b}, nil
}

// planned is a scheduler that replays a plan (slot-major, user-minor):
// each grant clamped to the slot's Eq. (1)/(2) limits, so a plan computed
// against the same radio and capacity replays exactly, and nothing past
// the plan's horizon.
type planned [][]int

func (planned) Name() string { return "Planned" }

func (p planned) Allocate(slot *sched.Slot, alloc []int) {
	if slot.N >= len(p) {
		return
	}
	row, remaining := p[slot.N], slot.CapacityUnits
	for i, a := range row[:min(len(row), len(alloc))] {
		if !slot.ActiveAt(i) {
			a = 0
		}
		a = min(a, slot.MaxUnitsAt(i), remaining)
		alloc[i] = a
		remaining -= a
	}
}

// Replaying the omniscient plan through the real simulator must reproduce
// the upper bound's transmission energy (the physics agree), while its
// playback-oblivious pacing shows up as heavy rebuffering compared to the
// buffer-aware schedulers — the reason the plan is a bound, not a policy.
func TestPlannedScheduleThroughSimulator(t *testing.T) {
	cellCfg := cell.PaperConfig()
	cellCfg.Capacity = 4000
	cellCfg.MaxSlots = 400
	cellCfg.RunFullHorizon = true

	wlCfg := workload.PaperDefaults(4)
	wlCfg.SizeMin = 8 * units.Megabyte
	wlCfg.SizeMax = 12 * units.Megabyte
	wlCfg.Signal.PeriodSlots = 48

	mkSessions := func() []*workload.Session {
		wl, err := workload.Generate(wlCfg, rng.New(31))
		if err != nil {
			t.Fatal(err)
		}
		return wl
	}

	plan, err := ComputePlan(Config{
		Tau:      cellCfg.Tau,
		Unit:     cellCfg.Unit,
		Capacity: cellCfg.Capacity,
		Horizon:  cellCfg.MaxSlots,
		Radio:    cellCfg.Radio,
	}, mkSessions())
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Bounds.Feasible {
		t.Fatal("test premise: plan infeasible")
	}

	sim, err := cell.New(cellCfg, mkSessions(), planned(plan.Alloc))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}

	// 1. Everything delivered.
	for i, u := range res.Users {
		if u.CompletionSlot < 0 && u.DeliveredKB == 0 {
			t.Errorf("user %d received nothing", i)
		}
	}
	// 2. Transmission energy matches the bound (within the one-unit
	// rounding of final shards).
	var trans units.MJ
	for _, u := range res.Users {
		trans += u.TransEnergy
	}
	diff := math.Abs(float64(trans - plan.Bounds.UpperMJ))
	if diff > 0.02*float64(plan.Bounds.UpperMJ) {
		t.Errorf("simulated plan energy %v differs from bound %v", trans, plan.Bounds.UpperMJ)
	}
	// 3. The clairvoyant energy plan ignores buffers: it cannot match the
	// stall-minimizing RTMA on rebuffering (whether it beats EMA is
	// scenario-dependent — front-loading cheap slots sometimes feeds
	// buffers too).
	rt, err := sched.NewRTMA(sched.RTMAConfig{Budget: 2000, Radio: cellCfg.Radio, RRC: cellCfg.RRC})
	if err != nil {
		t.Fatal(err)
	}
	sim2, err := cell.New(cellCfg, mkSessions(), rt)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := sim2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalRebuffer() <= res2.TotalRebuffer() {
		t.Errorf("planned rebuffer %v not above RTMA %v — plan unexpectedly playback-optimal",
			res.TotalRebuffer(), res2.TotalRebuffer())
	}
}

// The compiled link table and the analytic signal-trace path evaluate
// the same floating-point expressions (the table's LUT is used only when
// provably exact), so replaying the table through Config.Link must
// reproduce every bound bitwise — not merely within tolerance.
func TestTableReplayMatchesAnalytic(t *testing.T) {
	cellCfg := cell.PaperConfig()
	cellCfg.Capacity = 4000
	cellCfg.MaxSlots = 400

	wlCfg := workload.PaperDefaults(4)
	wlCfg.SizeMin = 8 * units.Megabyte
	wlCfg.SizeMax = 12 * units.Megabyte
	wl, err := workload.Generate(wlCfg, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	lt, err := cell.CompileLink(cellCfg, wl)
	if err != nil {
		t.Fatal(err)
	}

	oCfg := Config{
		Tau:         cellCfg.Tau,
		Unit:        cellCfg.Unit,
		Capacity:    cellCfg.Capacity,
		Horizon:     cellCfg.MaxSlots,
		Radio:       cellCfg.Radio,
		RRC:         cellCfg.RRC,
		AccountTail: true,
	}
	analytic, err := Compute(oCfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	oCfg.Link = lt
	replayed, err := Compute(oCfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if analytic != replayed {
		t.Errorf("table replay diverged from analytic bounds:\n analytic %+v\n replayed %+v", analytic, replayed)
	}
}

// With AccountTail the upper bound prices the omniscient plan's idle
// gaps through the same Eq. (4) increments the engine commits, so the
// bound becomes comparable to the simulator's *total* energy — the
// replayed plan's trans+tail must land within the same few-percent shard
// rounding as the transmission-only comparison above, and the full
// dominance bracket must hold around it.
func TestTailAccountedUpperComparableToSimulator(t *testing.T) {
	cellCfg := cell.PaperConfig()
	cellCfg.Capacity = 4000
	cellCfg.MaxSlots = 400
	cellCfg.RunFullHorizon = true

	wlCfg := workload.PaperDefaults(4)
	wlCfg.SizeMin = 8 * units.Megabyte
	wlCfg.SizeMax = 12 * units.Megabyte
	wlCfg.Signal.PeriodSlots = 48

	mkSessions := func() []*workload.Session {
		wl, err := workload.Generate(wlCfg, rng.New(31))
		if err != nil {
			t.Fatal(err)
		}
		return wl
	}

	oCfg := Config{
		Tau:         cellCfg.Tau,
		Unit:        cellCfg.Unit,
		Capacity:    cellCfg.Capacity,
		Horizon:     cellCfg.MaxSlots,
		Radio:       cellCfg.Radio,
		RRC:         cellCfg.RRC,
		AccountTail: true,
	}
	plan, err := ComputePlan(oCfg, mkSessions())
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Bounds.Feasible {
		t.Fatal("test premise: plan infeasible")
	}
	if plan.Bounds.TailMJ <= 0 {
		t.Fatal("test premise: omniscient plan has no idle gaps to charge")
	}

	sim, err := cell.New(cellCfg, mkSessions(), planned(plan.Alloc))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}

	var trans, total units.MJ
	for _, u := range res.Users {
		trans += u.TransEnergy
		total += u.TransEnergy + u.TailEnergy
	}
	diff := math.Abs(float64(total - plan.Bounds.UpperMJ))
	if diff > 0.02*float64(plan.Bounds.UpperMJ) {
		t.Errorf("simulated plan total energy %v differs from tail-accounted bound %v (tail %v)",
			total, plan.Bounds.UpperMJ, plan.Bounds.TailMJ)
	}
	// Dominance bracket around the simulated run.
	if plan.Bounds.LowerMJ > trans+units.MJ(diff) {
		t.Errorf("lower bound %v exceeds simulated transmission energy %v", plan.Bounds.LowerMJ, trans)
	}
	if total > plan.Bounds.WorstMJ {
		t.Errorf("simulated total %v exceeds the adversarial certificate %v", total, plan.Bounds.WorstMJ)
	}
}
