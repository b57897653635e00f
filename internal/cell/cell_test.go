package cell

import (
	"context"
	"math"
	"testing"
	"unsafe"

	"jointstream/internal/radio"
	"jointstream/internal/rng"
	"jointstream/internal/rrc"
	"jointstream/internal/sched"
	"jointstream/internal/signal"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// tinyConfig is a fast configuration for unit tests.
func tinyConfig() Config {
	cfg := PaperConfig()
	cfg.MaxSlots = 500
	return cfg
}

// tinySessions builds a small deterministic workload.
func tinySessions(t *testing.T, n int, sizeKB units.KB, rate units.KBps) []*workload.Session {
	t.Helper()
	sessions := make([]*workload.Session, n)
	for i := 0; i < n; i++ {
		sessions[i] = &workload.Session{
			ID:       i,
			Size:     sizeKB,
			BaseRate: rate,
			Signal:   signal.Constant(-60, signal.DefaultBounds),
		}
	}
	return sessions
}

// TestUserStateSize pins the per-user record at 120 B: the embedded
// rrc.Tail ({float64; bool}) must fit the padding the flattened gap and
// flag used, or every large-N tick streams more bytes per user.
func TestUserStateSize(t *testing.T) {
	if size := unsafe.Sizeof(userState{}); size != 120 {
		t.Errorf("userState is %d B, want 120", size)
	}
}

func TestConfigValidate(t *testing.T) {
	good := PaperConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("paper config invalid: %v", err)
	}
	mutations := []struct {
		name string
		f    func(*Config)
	}{
		{"tau", func(c *Config) { c.Tau = 0 }},
		{"unit", func(c *Config) { c.Unit = 0 }},
		{"capacity", func(c *Config) { c.Capacity = 0 }},
		{"slots", func(c *Config) { c.MaxSlots = 0 }},
		{"radio", func(c *Config) { c.Radio = radio.Model{} }},
		{"rrc", func(c *Config) { c.RRC = rrc.Profile{Pd: -1} }},
		{"workers", func(c *Config) { c.Workers = -1 }},
		{"shardsize", func(c *Config) { c.ShardSize = -4 }},
	}
	for _, m := range mutations {
		c := PaperConfig()
		m.f(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: invalid config accepted", m.name)
		}
	}
}

func TestNewValidation(t *testing.T) {
	cfg := tinyConfig()
	sessions := tinySessions(t, 2, 1000, 400)
	if _, err := New(cfg, sessions, nil); err == nil {
		t.Error("nil scheduler accepted")
	}
	if _, err := New(cfg, nil, sched.NewDefault()); err == nil {
		t.Error("empty sessions accepted")
	}
	bad := tinySessions(t, 2, 1000, 400)
	bad[1].ID = 7
	if _, err := New(cfg, bad, sched.NewDefault()); err == nil {
		t.Error("non-dense session IDs accepted")
	}
}

func TestSingleUserCompletesAndAccounts(t *testing.T) {
	cfg := tinyConfig()
	// 1 MB video at 400 KB/s: 2.5 s of content.
	sessions := tinySessions(t, 1, 1000, 400)
	sim, err := New(cfg, sessions, sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	u := res.Users[0]
	if u.DeliveredKB != 1000 {
		t.Errorf("delivered %v, want exactly 1000 (last shard capped)", u.DeliveredKB)
	}
	if u.CompletionSlot < 0 {
		t.Error("playback never completed")
	}
	if u.TransEnergy <= 0 {
		t.Error("no transmission energy recorded")
	}
	if res.SchedulerName != "Default" {
		t.Errorf("scheduler name %q", res.SchedulerName)
	}
	// Run should stop shortly after completion, not at MaxSlots.
	if res.Slots >= cfg.MaxSlots {
		t.Errorf("run did not stop early: %d slots", res.Slots)
	}
}

func TestDeliveredNeverExceedsVideoSize(t *testing.T) {
	cfg := tinyConfig()
	sessions := tinySessions(t, 3, 1234, 400) // not a multiple of the 100KB unit
	sim, _ := New(cfg, sessions, sched.NewDefault())
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range res.Users {
		if u.DeliveredKB != 1234 {
			t.Errorf("user %d delivered %v, want exactly 1234", i, u.DeliveredKB)
		}
	}
}

func TestTailEnergyAfterCompletion(t *testing.T) {
	cfg := tinyConfig()
	cfg.RunFullHorizon = true
	cfg.MaxSlots = 60
	sessions := tinySessions(t, 1, 500, 400) // finishes quickly
	sim, _ := New(cfg, sessions, sched.NewDefault())
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	// After the last transfer the radio must ride one full tail.
	wantTail := cfg.RRC.MaxTailEnergy()
	if math.Abs(float64(res.Users[0].TailEnergy-wantTail)) > 1e-6 {
		t.Errorf("tail energy %v, want one full tail %v", res.Users[0].TailEnergy, wantTail)
	}
	if res.Slots != 60 {
		t.Errorf("full horizon run stopped at %d", res.Slots)
	}
}

func TestStrictModeCatchesViolations(t *testing.T) {
	cfg := tinyConfig()
	cfg.Strict = true
	sessions := tinySessions(t, 1, 1000, 400)
	sim, _ := New(cfg, sessions, overAllocator{})
	if _, err := sim.Run(); err == nil {
		t.Error("strict mode missed an over-allocation")
	}
}

func TestClampMode(t *testing.T) {
	cfg := tinyConfig()
	sessions := tinySessions(t, 1, 1000, 400)
	sim, _ := New(cfg, sessions, overAllocator{})
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ClampEvents == 0 {
		t.Error("clamp events not recorded")
	}
	if res.Users[0].DeliveredKB != 1000 {
		t.Errorf("clamped run delivered %v", res.Users[0].DeliveredKB)
	}
}

// overAllocator always requests more than permitted.
type overAllocator struct{}

func (overAllocator) Name() string { return "over" }
func (overAllocator) Allocate(slot *sched.Slot, alloc []int) {
	for i := range alloc {
		alloc[i] = slot.MaxUnitsAt(i)*2 + 10
	}
}

func TestCapacityContention(t *testing.T) {
	cfg := tinyConfig()
	cfg.Capacity = 1000 // 10 units/slot for everyone
	sessions := tinySessions(t, 4, 5000, 400)
	sim, _ := New(cfg, sessions, sched.NewDefault())
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res.PerSlot {
		if st.UsedUnits > 10 {
			t.Fatalf("slot used %d units, capacity 10", st.UsedUnits)
		}
	}
	// Greedy default under contention: user 0 finishes first.
	if res.Users[0].CompletionSlot < 0 {
		t.Error("user 0 never completed")
	}
	if res.Users[0].CompletionSlot > res.Users[3].CompletionSlot && res.Users[3].CompletionSlot >= 0 {
		t.Error("greedy default should favor user 0")
	}
}

func TestFairnessIndexRange(t *testing.T) {
	cfg := tinyConfig()
	cfg.Capacity = 1000
	sessions := tinySessions(t, 4, 5000, 400)
	sim, _ := New(cfg, sessions, sched.NewDefault())
	res, _ := sim.Run()
	for i, st := range res.PerSlot {
		if st.Fairness < 0.2499 || st.Fairness > 1.0001 {
			t.Fatalf("slot %d fairness %v outside [1/N, 1]", i, st.Fairness)
		}
	}
}

func TestPerUserSlotRecording(t *testing.T) {
	cfg := tinyConfig()
	cfg.Record = RecordUserSlots
	sessions := tinySessions(t, 2, 1000, 400)
	sim, _ := New(cfg, sessions, sched.NewDefault())
	res, _ := sim.Run()
	if len(res.RebufferSamples) != 2 || len(res.EnergySamples) != 2 {
		t.Fatal("per-user samples missing")
	}
	for i := range res.RebufferSamples {
		if len(res.RebufferSamples[i]) != res.Slots {
			t.Errorf("user %d has %d rebuffer samples, want %d", i, len(res.RebufferSamples[i]), res.Slots)
		}
	}
}

func TestMetricsAggregation(t *testing.T) {
	cfg := tinyConfig()
	sessions := tinySessions(t, 2, 1000, 400)
	sim, _ := New(cfg, sessions, sched.NewDefault())
	res, _ := sim.Run()

	var wantEnergy units.MJ
	var wantRebuffer units.Seconds
	for _, u := range res.Users {
		wantEnergy += u.Energy()
		wantRebuffer += u.Rebuffer
	}
	if res.TotalEnergy() != wantEnergy {
		t.Error("TotalEnergy mismatch")
	}
	if res.TotalRebuffer() != wantRebuffer {
		t.Error("TotalRebuffer mismatch")
	}
	n := float64(len(res.Users))
	gamma := float64(res.Slots)
	if math.Abs(float64(res.PE())-float64(wantEnergy)/(n*gamma)) > 1e-9 {
		t.Error("PE mismatch")
	}
	if math.Abs(float64(res.PC())-float64(wantRebuffer)/(n*gamma)) > 1e-9 {
		t.Error("PC mismatch")
	}
	if math.Abs(float64(res.MeanEnergyPerUser())-float64(wantEnergy)/n) > 1e-9 {
		t.Error("MeanEnergyPerUser mismatch")
	}
	if math.Abs(float64(res.MeanRebufferPerUser())-float64(wantRebuffer)/n) > 1e-9 {
		t.Error("MeanRebufferPerUser mismatch")
	}

	// Per-slot aggregates must sum to the user totals.
	var slotEnergy units.MJ
	var slotRebuffer units.Seconds
	for _, st := range res.PerSlot {
		slotEnergy += st.Energy
		slotRebuffer += st.Rebuffer
	}
	if math.Abs(float64(slotEnergy-wantEnergy)) > 1e-6 {
		t.Errorf("per-slot energy %v != user total %v", slotEnergy, wantEnergy)
	}
	if math.Abs(float64(slotRebuffer-wantRebuffer)) > 1e-6 {
		t.Errorf("per-slot rebuffer %v != user total %v", slotRebuffer, wantRebuffer)
	}
}

func TestEmptyResultMetrics(t *testing.T) {
	r := &Result{}
	if r.PE() != 0 || r.PC() != 0 || r.MeanEnergyPerUser() != 0 || r.MeanRebufferPerUser() != 0 {
		t.Error("empty result metrics should be zero")
	}
}

func TestStaggeredStartDelaysActivity(t *testing.T) {
	cfg := tinyConfig()
	sessions := tinySessions(t, 2, 1000, 400)
	sessions[1].StartSlot = 10
	cfg.Record = RecordUserSlots
	sim, _ := New(cfg, sessions, sched.NewDefault())
	res, _ := sim.Run()
	// User 1 must not receive energy or rebuffer before slot 10.
	for n := 0; n < 10 && n < res.Slots; n++ {
		if res.EnergySamples[1][n] != 0 {
			t.Errorf("slot %d: user 1 consumed energy before start", n)
		}
		if res.RebufferSamples[1][n] != 0 {
			t.Errorf("slot %d: user 1 rebuffered before start", n)
		}
	}
}

func TestSimulatorSingleUse(t *testing.T) {
	// The engine consumes admission and retirement state, so a second run
	// on the same Simulator would silently simulate an empty cell. Both
	// entry points must refuse instead.
	cfg := tinyConfig()
	sim, err := New(cfg, tinySessions(t, 2, 1000, 400), sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err == nil {
		t.Error("second Run on a consumed simulator accepted")
	}
	if _, err := sim.RunReference(context.Background()); err == nil {
		t.Error("RunReference on a consumed simulator accepted")
	}

	ref, err := New(cfg, tinySessions(t, 2, 1000, 400), sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.RunReference(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(); err == nil {
		t.Error("Run after RunReference accepted")
	}
}

func TestResultAccessorsMatchUncached(t *testing.T) {
	// The memoized aggregate the engine caches at finalize must agree bit
	// for bit with the accessors' fallback scan over res.Users.
	cfg := tinyConfig()
	sim, err := New(cfg, tinySessions(t, 3, 1000, 400), sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.agg == nil {
		t.Fatal("Run did not finalize the result")
	}
	type snap struct {
		pe, totalE, tailE, transPerSlot units.MJ
		pc, rebuffer                    units.Seconds
	}
	take := func() snap {
		return snap{
			pe: res.PE(), totalE: res.TotalEnergy(), tailE: res.TotalTailEnergy(),
			transPerSlot: res.TransEnergyPerActiveSlot(),
			pc:           res.PC(), rebuffer: res.TotalRebuffer(),
		}
	}
	cached := take()
	res.agg = nil // drop the memo; accessors fall back to scanning
	if uncached := take(); cached != uncached {
		t.Errorf("memoized accessors %+v != uncached scan %+v", cached, uncached)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() *Result {
		cfg := tinyConfig()
		cfg.MaxSlots = 300
		wl, err := workload.Generate(workload.PaperDefaults(5), rng.New(77))
		if err != nil {
			t.Fatal(err)
		}
		// Shrink videos so the run completes quickly.
		for _, s := range wl {
			s.Size = 20000
		}
		sim, err := New(cfg, wl, sched.NewDefault())
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Slots != b.Slots || a.TotalEnergy() != b.TotalEnergy() || a.TotalRebuffer() != b.TotalRebuffer() {
		t.Error("same-seed runs diverged")
	}
}

// Sanity: RTMA yields higher fairness than Default under contention.
func TestRTMAFairerThanDefaultEndToEnd(t *testing.T) {
	mkSessions := func() []*workload.Session {
		wl, err := workload.Generate(workload.PaperDefaults(10), rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range wl {
			s.Size = 100000 // 100 MB to keep the test fast
		}
		return wl
	}
	cfg := tinyConfig()
	cfg.MaxSlots = 400
	cfg.Capacity = 3000 // heavy contention: demand ~4500 KB/s
	cfg.Strict = true

	runWith := func(s sched.Scheduler) *Result {
		sim, err := New(cfg, mkSessions(), s)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	defRes := runWith(sched.NewDefault())
	rt, err := sched.NewRTMA(sched.RTMAConfig{Budget: 2000, Radio: cfg.Radio, RRC: cfg.RRC})
	if err != nil {
		t.Fatal(err)
	}
	rtRes := runWith(rt)

	meanFair := func(r *Result) float64 {
		var sum float64
		for _, st := range r.PerSlot {
			sum += st.Fairness
		}
		return sum / float64(len(r.PerSlot))
	}
	df, rf := meanFair(defRes), meanFair(rtRes)
	if rf <= df {
		t.Errorf("RTMA fairness %v not above Default %v", rf, df)
	}
	if rtRes.TotalRebuffer() >= defRes.TotalRebuffer() {
		t.Errorf("RTMA rebuffer %v not below Default %v",
			rtRes.TotalRebuffer(), defRes.TotalRebuffer())
	}
}

func TestEnergyBreakdownAccessors(t *testing.T) {
	cfg := tinyConfig()
	cfg.RunFullHorizon = true
	cfg.MaxSlots = 40
	sessions := tinySessions(t, 2, 1000, 400)
	sim, _ := New(cfg, sessions, sched.NewDefault())
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	var wantTail, wantTrans units.MJ
	active := 0
	for _, u := range res.Users {
		wantTail += u.TailEnergy
		wantTrans += u.TransEnergy
		active += u.ActiveSlots
	}
	if res.TotalTailEnergy() != wantTail {
		t.Errorf("TotalTailEnergy = %v, want %v", res.TotalTailEnergy(), wantTail)
	}
	if active == 0 {
		t.Fatal("no active slots")
	}
	want := wantTrans / units.MJ(active)
	if math.Abs(float64(res.TransEnergyPerActiveSlot()-want)) > 1e-9 {
		t.Errorf("TransEnergyPerActiveSlot = %v, want %v", res.TransEnergyPerActiveSlot(), want)
	}
	// A result with no active slots reports zero.
	empty := &Result{Users: []UserTotals{{}}}
	if empty.TransEnergyPerActiveSlot() != 0 {
		t.Error("no-active-slot result not zero")
	}
}

func TestMeanQualityZeroWhenNeverPlayed(t *testing.T) {
	u := UserTotals{}
	if u.MeanQuality() != 0 {
		t.Error("MeanQuality of fresh user not zero")
	}
}
