package sched

import (
	"math"
	"testing"

	"jointstream/internal/rng"
	"jointstream/internal/rrc"
	"jointstream/internal/units"
)

// cloneEMA snapshots an EMA (weight, profile, queue state) so the fast and
// reference DPs can be run from identical state without interference.
func cloneEMA(e *EMA) *EMA {
	c := &EMA{v: e.v, rrc: e.rrc, tailDrained: e.tailDrained}
	c.queues = append(c.queues, e.queues...)
	return c
}

// randomSlotForDP builds a slot of n users with random channel, rate and
// tail state; roughly one user in eight is inactive to exercise the DP
// participant filter.
func randomSlotForDP(src *rng.Source, n, capacity int) *Slot {
	users := make([]user, n)
	for i := range users {
		sig := units.DBm(src.Uniform(-110, -50))
		u := stdUser(units.KBps(src.Uniform(300, 600)), sig, 1+src.Intn(12))
		if src.Bool(0.5) {
			u.NeverActive = false
			u.TailGap = units.Seconds(src.Uniform(0, 9))
		}
		if src.Bool(0.125) {
			u.Active = false
			u.MaxUnits = 0
		}
		users[i] = u
	}
	return makeSlot(capacity, users...)
}

// objective evaluates Σ f(i, ϕ_i) under e's current (pre-Allocate) queues.
func objective(e *EMA, slot *Slot, alloc []int) float64 {
	var sum float64
	for i := range alloc {
		sum += e.slotCost(slot, i, alloc[i])
	}
	return sum
}

func sameObjective(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*(1+math.Abs(want))
}

// TestEMAFastMatchesRef is the differential gate for the monotone-deque
// DP: across N ∈ {1..40}, capacity ∈ {1, 10, 205} and random seeds, the
// fast path must return allocations with the same objective value as the
// paper-literal runDPRef — and as the exhaustive BruteForceObjective on
// instances small enough to enumerate. Queues evolve across slots (driven
// by the fast path's decisions), so the sweep also covers negative and
// positive drift terms.
func TestEMAFastMatchesRef(t *testing.T) {
	for _, capacity := range []int{1, 10, 205} {
		for n := 1; n <= 40; n++ {
			src := rng.New(uint64(1000*capacity + n))
			e := newEMA(t, 0.05+src.Float64()*2)
			for step := 0; step < 6; step++ {
				slot := randomSlotForDP(src, n, capacity)

				ref := cloneEMA(e)
				fastAlloc := make([]int, n)
				refAlloc := make([]int, n)
				// Objectives must be read before Allocate advances queues.
				e.Allocate(slot, fastAlloc)
				ref.AllocateRef(slot, refAlloc)
				gotObj := objective(ref, slot, fastAlloc)
				wantObj := objective(ref, slot, refAlloc)

				if !sameObjective(gotObj, wantObj) {
					t.Fatalf("cap=%d n=%d step=%d: fast objective %v != ref %v (alloc %v vs %v)",
						capacity, n, step, gotObj, wantObj, fastAlloc, refAlloc)
				}
				if err := slot.Validate(fastAlloc); err != nil {
					t.Fatalf("cap=%d n=%d step=%d: fast allocation invalid: %v", capacity, n, step, err)
				}
				if err := slot.Validate(refAlloc); err != nil {
					t.Fatalf("cap=%d n=%d step=%d: ref allocation invalid: %v", capacity, n, step, err)
				}

				if n <= 4 && capacity <= 12 {
					maxUnits := make([]int, n)
					for i := range maxUnits {
						maxUnits[i] = slot.MaxUnitsAt(i)
					}
					_, bruteObj := BruteForceObjective(maxUnits, capacity, func(i, phi int) float64 {
						return ref.slotCost(slot, i, phi)
					})
					if !sameObjective(gotObj, bruteObj) {
						t.Fatalf("cap=%d n=%d step=%d: fast objective %v != brute force %v",
							capacity, n, step, gotObj, bruteObj)
					}
				}
			}
		}
	}
}

// TestEMARefQueueParity checks that driving two schedulers — one per DP —
// through the same slot sequence keeps their virtual queues in lockstep:
// objective-identical decisions must induce identical Eq. (16) updates.
func TestEMARefQueueParity(t *testing.T) {
	src := rng.New(77)
	fast := newEMA(t, 0.3)
	ref := newEMA(t, 0.3)
	const n = 12
	for step := 0; step < 40; step++ {
		slot := randomSlotForDP(src, n, 1+src.Intn(30))
		fastAlloc := make([]int, n)
		refAlloc := make([]int, n)
		fast.Allocate(slot, fastAlloc)
		ref.AllocateRef(slot, refAlloc)
		for i := 0; i < n; i++ {
			if math.Abs(float64(fast.Queue(i)-ref.Queue(i))) > 1e-9 {
				t.Fatalf("step %d: queue %d diverged: fast %v ref %v (alloc %v vs %v)",
					step, i, fast.Queue(i), ref.Queue(i), fastAlloc, refAlloc)
			}
		}
	}
}

// TestEMATailIncrementMemo pins the memoized skip cost to the closed form
// and checks the memo stays bounded by the in-tail gap count.
func TestEMATailIncrementMemo(t *testing.T) {
	p := rrc.Paper3G()
	e := newEMA(t, 1)
	for _, gap := range []units.Seconds{0, 1, 2, 3, 3.29, 5, 7, 7.31, 8, 100} {
		want := float64(p.TailEnergy(gap+1) - p.TailEnergy(gap))
		if got := e.tailIncrement(gap, 1); math.Abs(got-want) > 1e-12 {
			t.Errorf("tailIncrement(%v) = %v, want %v", gap, got, want)
		}
	}
	// Drained gaps (≥ T1+T2) must not grow the memo.
	filled := 0
	for _, k := range e.tailKeys {
		if k >= 0 {
			filled++
		}
	}
	if filled > 8 {
		t.Errorf("memo grew to %d entries; drained gaps should bypass it", filled)
	}
	// Second pass hits the memo and must agree.
	for _, gap := range []units.Seconds{0, 1, 3.29, 7, 100} {
		want := float64(p.TailEnergy(gap+1) - p.TailEnergy(gap))
		if got := e.tailIncrement(gap, 1); math.Abs(got-want) > 1e-12 {
			t.Errorf("memoized tailIncrement(%v) = %v, want %v", gap, got, want)
		}
	}
}

func BenchmarkEMARef40Users(b *testing.B) {
	e, err := NewEMA(EMAConfig{V: 1, RRC: rrc.Paper3G()})
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(1)
	users := make([]user, 40)
	for i := range users {
		users[i] = stdUser(units.KBps(src.Uniform(300, 600)), units.DBm(src.Uniform(-110, -50)), 20)
	}
	slot := makeSlot(205, users...)
	alloc := make([]int, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range alloc {
			alloc[j] = 0
		}
		e.AllocateRef(slot, alloc)
	}
}
