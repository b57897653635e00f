package simtest

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"jointstream/internal/cell"
	"jointstream/internal/rng"
	"jointstream/internal/sched"
	"jointstream/internal/signal"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// traceModels is the channel-model axis of the engine matrix: the paper's
// noisy sine plus the two stochastic generators, so the engine is
// pinned against qualitatively different link dynamics (smooth periodic,
// diffusive, and bursty two-state).
var traceModels = []string{"sine+wgn", "randomwalk", "gilbert-elliott"}

// traceSessions builds a small deterministic workload whose channels come
// from the named generator. Sessions carry rate jitter (odd users) and a
// mild start stagger so the admission path fires; calling it twice with
// the same arguments yields identical workloads, which is what lets the
// differential harness build the two engine arms independently.
func traceSessions(t testing.TB, model string, users int) []*workload.Session {
	t.Helper()
	return traceSessionsSeed(t, model, users, uint64(31+len(model)))
}

// traceSessionsSeed is traceSessions with an explicit generator seed, so
// the dominance suite can sweep workloads beyond the matrix's fixed one.
func traceSessionsSeed(t testing.TB, model string, users int, seed uint64) []*workload.Session {
	t.Helper()
	src := rng.New(seed)
	mkTrace := func(i int) (signal.Trace, error) {
		switch model {
		case "sine+wgn":
			return signal.NewStatelessSine(signal.SineConfig{
				Bounds:      signal.DefaultBounds,
				PeriodSlots: 120,
				Phase:       float64(i),
				NoiseStdDBm: 10,
			}, src.Uint64())
		case "randomwalk":
			return signal.NewRandomWalk(signal.RandomWalkConfig{
				Bounds:  signal.DefaultBounds,
				Start:   units.DBm(-80 - i),
				StepStd: 2.5,
			}, src)
		case "gilbert-elliott":
			return signal.NewGilbertElliott(signal.GilbertElliottConfig{
				Bounds: signal.DefaultBounds,
				Good:   -60, Bad: -100,
				PGoodToBad: 0.05, PBadToGood: 0.1,
				JitterStd: 3,
			}, src)
		}
		return nil, fmt.Errorf("unknown trace model %q", model)
	}
	sessions := make([]*workload.Session, users)
	for i := range sessions {
		tr, err := mkTrace(i)
		if err != nil {
			t.Fatalf("%s trace %d: %v", model, i, err)
		}
		sessions[i] = &workload.Session{
			ID:        i,
			Size:      units.KB(2000 + 600*i),
			BaseRate:  units.KBps(250 + 50*i),
			StartSlot: 2 * i,
			Signal:    tr,
		}
		if i%2 == 1 {
			sessions[i].RateJitter = 30
		}
	}
	return sessions
}

// TestEngineMatrixSoAvsReference is the full acceptance matrix of the
// zero-copy column view: every scheduler in the repo × every trace model
// × worker counts {1, 4, max}, production engine (Run: table-aliased
// columns, live list, fused pass) against the analytic full-scan
// reference arm (RunReference), byte-identical Results.
// The workloads fit in a single shard, so equality is exact by
// construction — any deviation is a column-aliasing or ownership bug.
func TestEngineMatrixSoAvsReference(t *testing.T) {
	for name, mk := range factories(t) {
		for _, model := range traceModels {
			for _, workers := range []int{1, 4, 0} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", name, model, workers), func(t *testing.T) {
					ref, build := engineArms(func() (cell.Config, []*workload.Session, sched.Scheduler, error) {
						cfg := engineCfg()
						cfg.Workers = workers
						return cfg, traceSessions(t, model, 6), mk(), nil
					})
					if err := CheckEngineEquivalence(true, ref, build); err != nil {
						t.Error(err)
					}
				})
			}
		}
	}
}

// cloneSlot returns an independent copy of the slot: same problem, fresh
// Columns, so writes through one copy's columns never reach the other.
func cloneSlot(slot *sched.Slot) *sched.Slot {
	in := slot.Cols
	out := *slot
	out.Cols = &sched.Columns{
		Active:      slices.Clone(in.Active),
		Sig:         slices.Clone(in.Sig),
		LinkRate:    slices.Clone(in.LinkRate),
		EnergyPerKB: slices.Clone(in.EnergyPerKB),
		Rate:        slices.Clone(in.Rate),
		BufferSec:   slices.Clone(in.BufferSec),
		RemainingKB: slices.Clone(in.RemainingKB),
		TailGap:     slices.Clone(in.TailGap),
		NeverActive: slices.Clone(in.NeverActive),
		MaxUnits:    slices.Clone(in.MaxUnits),
	}
	out.ActiveList = slices.Clone(slot.ActiveList)
	return &out
}

// TestSchedulerActiveListEquivalence is the scheduler-level differential
// over the one fork left in the slot contract: the same random slot
// presented with ActiveList == nil (the scan fallback hand-built slots
// and RunReference take) and with the ascending engine-style list must
// yield identical allocations from fresh instances of every scheduler.
func TestSchedulerActiveListEquivalence(t *testing.T) {
	for name, mk := range factories(t) {
		t.Run(name, func(t *testing.T) {
			f := func(seed uint64) bool {
				src := rng.New(seed)
				n := 1 + src.Intn(14)
				scan := RandomSlot(src, n, src.Intn(260))
				listed := cloneSlot(scan)
				// Non-nil even when empty: an empty list means "nobody is
				// active", nil means "scan for yourself".
				listed.ActiveList = []int{}
				for i := 0; i < n; i++ {
					if listed.ActiveAt(i) {
						listed.ActiveList = append(listed.ActiveList, i)
					}
				}
				a1 := make([]int, n)
				mk().Allocate(scan, a1)
				a2 := make([]int, n)
				mk().Allocate(listed, a2)
				if !slices.Equal(a1, a2) {
					t.Logf("seed %d: scan alloc %v != active-list alloc %v", seed, a1, a2)
					return false
				}
				if err := listed.Validate(a2); err != nil {
					t.Logf("seed %d: %v", seed, err)
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

// TestColumnMutationObserved is the aliasing property: the slot view is
// zero-copy, so a write through a column slice between two Allocate calls
// of the same scheduler instance must be observed by the second call —
// exactly as the engine refreshes dynamic columns in place each slot. A
// second instance walks the same two-slot trajectory but is handed a
// freshly built Columns of the mutated problem for the second slot, so
// the test both proves the mutation is seen (the deactivated user gets
// nothing) and that it is seen as the equivalent fresh problem (no stale
// snapshot, no partial refresh).
func TestColumnMutationObserved(t *testing.T) {
	for name, mk := range factories(t) {
		t.Run(name, func(t *testing.T) {
			f := func(seed uint64) bool {
				src := rng.New(seed)
				n := 2 + src.Intn(12)
				cap := src.Intn(200)
				slot := RandomSlot(src, n, cap)
				inPlace, rebuilt := mk(), mk()

				a1 := make([]int, n)
				inPlace.Allocate(slot, a1)
				warm := make([]int, n)
				rebuilt.Allocate(cloneSlot(slot), warm)

				// Mutate through the column slices: deactivate one user,
				// zero another's link bound, move a third's rate.
				i := src.Intn(n)
				j := (i + 1) % n
				k := (i + 2) % n
				slot.Cols.Active[i] = false
				slot.Cols.MaxUnits[j] = 0
				slot.Cols.Rate[k] = units.KBps(src.Uniform(100, 700))

				a2 := make([]int, n)
				inPlace.Allocate(slot, a2)
				if a2[i] != 0 {
					t.Logf("seed %d: deactivation of user %d not observed (alloc %d)", seed, i, a2[i])
					return false
				}
				if a2[j] != 0 {
					t.Logf("seed %d: zeroed link bound of user %d not observed (alloc %d)", seed, j, a2[j])
					return false
				}
				ref := make([]int, n)
				rebuilt.Allocate(cloneSlot(slot), ref)
				if !slices.Equal(a2, ref) {
					t.Logf("seed %d: in-place alloc %v != freshly built alloc %v", seed, a2, ref)
					return false
				}
				return true
			}
			if err := quick.Check(f, quickCfg(40)); err != nil {
				t.Error(err)
			}
		})
	}
}
