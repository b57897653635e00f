package simtest

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"jointstream/internal/cell"
	"jointstream/internal/radio"
	"jointstream/internal/rng"
	"jointstream/internal/rrc"
	"jointstream/internal/sched"
	"jointstream/internal/units"
)

// factories builds one fresh instance of every scheduler in the repo:
// the paper's two algorithms, the adaptive extension, and all baselines.
func factories(t testing.TB) map[string]func() sched.Scheduler {
	t.Helper()
	must := func(s sched.Scheduler, err error) sched.Scheduler {
		if err != nil {
			t.Fatalf("scheduler construction: %v", err)
		}
		return s
	}
	return map[string]func() sched.Scheduler{
		"Default":    func() sched.Scheduler { return sched.NewDefault() },
		"Throttling": func() sched.Scheduler { return must(sched.NewThrottling(1.25)) },
		"ON-OFF":     func() sched.Scheduler { return must(sched.NewOnOff(10, 40)) },
		"SALSA":      func() sched.Scheduler { return must(sched.NewSALSA(5, 0.3)) },
		"EStreamer":  func() sched.Scheduler { return must(sched.NewEStreamer(40, 5)) },
		"RTMA": func() sched.Scheduler {
			return must(sched.NewRTMA(sched.RTMAConfig{
				Budget: 500, Radio: radio.Paper3G(), RRC: rrc.Paper3G(),
			}))
		},
		"EMA": func() sched.Scheduler {
			return must(sched.NewEMA(sched.EMAConfig{V: 0.2, RRC: rrc.Paper3G()}))
		},
		"AdaptiveEMA": func() sched.Scheduler {
			return must(sched.NewAdaptiveEMA(sched.AdaptiveEMAConfig{
				Omega: 0.05, RRC: rrc.Paper3G(),
			}))
		},
		// The slot-level suites drive Predictive through the synthetic
		// per-slot forecast (see slotForecast); the engine matrix and
		// dominance suites rebuild it against real link-table forecasts.
		"Predictive": func() sched.Scheduler {
			return must(sched.NewPredictive(sched.PredictiveConfig{
				Lookahead: 6, Forecast: slotForecast{seed: 17},
			}))
		},
	}
}

// quickCfg returns a deterministic testing/quick configuration: the
// default Config seeds from the wall clock, which would make failures
// unreproducible.
func quickCfg(maxCount int) *quick.Config {
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(7))}
}

// TestSchedulerFeasibilityProperty drives every scheduler — as a single
// persistent instance, so internal state (virtual queues, hysteresis,
// EWMAs) evolves across calls — over random slots and asserts the
// feasibility invariants hold without the simulator's clamp.
func TestSchedulerFeasibilityProperty(t *testing.T) {
	for name, mk := range factories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			f := func(seed uint64) bool {
				src := rng.New(seed)
				slot := RandomSlot(src, 1+src.Intn(14), src.Intn(260))
				alloc := make([]int, slot.NumUsers())
				s.Allocate(slot, alloc)
				if err := CheckAllocation(slot, alloc); err != nil {
					t.Logf("seed %d: %v", seed, err)
					return false
				}
				return true
			}
			if err := quick.Check(f, quickCfg(80)); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestSchedulerPermutationConservation is the metamorphic property: the
// set of users a base station serves must not depend on the order the
// Information Collector happens to list them in. Presenting the same
// physical users permuted (to a fresh scheduler instance) must conserve
// the total units allocated.
func TestSchedulerPermutationConservation(t *testing.T) {
	for name, mk := range factories(t) {
		t.Run(name, func(t *testing.T) {
			f := func(seed uint64) bool {
				src := rng.New(seed)
				n := 2 + src.Intn(10)
				slot := RandomSlot(src, n, src.Intn(120))
				perm := src.Perm(n)
				permuted, err := PermuteSlot(slot, perm)
				if err != nil {
					t.Fatal(err)
				}

				a1 := make([]int, n)
				mk().Allocate(slot, a1)
				a2 := make([]int, n)
				mk().Allocate(permuted, a2)

				if TotalUnits(a1) != TotalUnits(a2) {
					t.Logf("seed %d perm %v: total %d != %d (alloc %v vs %v)",
						seed, perm, TotalUnits(a1), TotalUnits(a2), a1, a2)
					return false
				}
				return true
			}
			if err := quick.Check(f, quickCfg(60)); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestEMAQueueRecursionProperty checks Eq. (16) across random slots for a
// persistent EMA whose queues wander positive and negative.
func TestEMAQueueRecursionProperty(t *testing.T) {
	e, err := sched.NewEMA(sched.EMAConfig{V: 0.2, RRC: rrc.Paper3G()})
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64) bool {
		src := rng.New(seed)
		slot := RandomSlot(src, 1+src.Intn(10), src.Intn(200))
		before := QueueSnapshot(e, slot)
		alloc := make([]int, slot.NumUsers())
		e.Allocate(slot, alloc)
		if err := CheckEq16(e, before, slot, alloc); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, quickCfg(80)); err != nil {
		t.Error(err)
	}
}

// TestEMAFastRefDifferentialProperty is the black-box arm of the
// differential gate (the white-box sweep lives in internal/sched): from
// identical injected queue states, Allocate and AllocateRef must return
// feasible allocations with the same Eq. (21–22) objective.
func TestEMAFastRefDifferentialProperty(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 1 + src.Intn(16)
		slot := RandomSlot(src, n, src.Intn(240))
		v := 0.05 + src.Float64()
		newEMA := func() *sched.EMA {
			e, err := sched.NewEMA(sched.EMAConfig{V: v, RRC: rrc.Paper3G()})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		// fast and ref take the slot; frozen keeps the pre-slot queues so
		// both resulting allocations can be priced under the same state.
		fast, ref, frozen := newEMA(), newEMA(), newEMA()
		for i := 0; i < n; i++ {
			q := units.Seconds(src.Uniform(-60, 60))
			fast.SetQueue(i, q)
			ref.SetQueue(i, q)
			frozen.SetQueue(i, q)
		}

		fastAlloc := make([]int, n)
		refAlloc := make([]int, n)
		fast.Allocate(slot, fastAlloc)
		ref.AllocateRef(slot, refAlloc)
		if err := CheckAllocation(slot, fastAlloc); err != nil {
			t.Logf("seed %d fast: %v", seed, err)
			return false
		}
		if err := CheckAllocation(slot, refAlloc); err != nil {
			t.Logf("seed %d ref: %v", seed, err)
			return false
		}
		got := EMAObjective(frozen, slot, fastAlloc)
		want := EMAObjective(frozen, slot, refAlloc)
		if !SameObjective(got, want) {
			t.Logf("seed %d: fast objective %v != ref %v (alloc %v vs %v)",
				seed, got, want, fastAlloc, refAlloc)
			return false
		}
		return true
	}
	if err := quick.Check(f, quickCfg(100)); err != nil {
		t.Error(err)
	}
}

// TestSimulationResultInvariants runs full miniature simulations for every
// scheduler and checks the run-level invariants.
func TestSimulationResultInvariants(t *testing.T) {
	for name, mk := range factories(t) {
		t.Run(name, func(t *testing.T) {
			wl, err := SmallWorkload(11, 4)
			if err != nil {
				t.Fatal(err)
			}
			cfg := cell.PaperConfig()
			cfg.Capacity = 1200
			cfg.MaxSlots = 200
			cfg.Record = cell.RecordUserSlots
			cfg.Strict = true
			sim, err := cell.New(cfg, wl, mk())
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run()
			if err != nil {
				t.Fatal(err)
			}
			if err := CheckResult(res); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestParallelDeterminism asserts DESIGN.md's determinism guarantee on
// the worker-pool path: the same seeded simulations produce identical
// results whether they run on 1 worker or many.
func TestParallelDeterminism(t *testing.T) {
	build := func(job int) (*cell.OpenSim, error) {
		wl, err := SmallWorkload(uint64(100+job), 3)
		if err != nil {
			return nil, err
		}
		cfg := cell.PaperConfig()
		cfg.Capacity = 900
		cfg.MaxSlots = 150
		cfg.Record = cell.RecordUserSlots
		em, err := sched.NewEMA(sched.EMAConfig{V: 0.2, RRC: cfg.RRC})
		if err != nil {
			return nil, err
		}
		return closedOpen(cfg, wl, em)
	}
	if err := CheckParallelDeterminism(context.Background(), []int{1, 4, 8}, 6, build); err != nil {
		t.Error(err)
	}
}
