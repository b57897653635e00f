package simtest

import (
	"testing"

	"jointstream/internal/rng"
	"jointstream/internal/rrc"
	"jointstream/internal/sched"
	"jointstream/internal/units"
)

// FuzzEMAAllocate fuzzes the EMA scheduler's per-slot decision: from an
// arbitrary (slot, queue, V) state the fast DP must not panic, must
// return a feasible allocation, must advance the virtual queues per
// Eq. (16), and must match the paper-literal reference DP's objective.
//
// Run the 30-second smoke mode locally with:
//
//	go test -fuzz=FuzzEMAAllocate -fuzztime=30s ./internal/simtest
func FuzzEMAAllocate(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint16(10), int64(0))
	f.Add(uint64(2), uint8(1), uint16(0), int64(30))
	f.Add(uint64(3), uint8(40), uint16(205), int64(-12))
	f.Add(uint64(99), uint8(16), uint16(511), int64(500))

	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint8, capRaw uint16, queueBias int64) {
		n := 1 + int(nRaw%40)
		capacity := int(capRaw % 512)
		src := rng.New(seed)
		slot := RandomSlot(src, n, capacity)

		v := 0.01 + src.Float64()*4
		newEMA := func() *sched.EMA {
			e, err := sched.NewEMA(sched.EMAConfig{V: v, RRC: rrc.Paper3G()})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		fast, ref, frozen := newEMA(), newEMA(), newEMA()
		bias := float64(queueBias % 1000)
		for i := 0; i < n; i++ {
			q := units.Seconds(src.Uniform(-100, 100) + bias)
			fast.SetQueue(i, q)
			ref.SetQueue(i, q)
			frozen.SetQueue(i, q)
		}

		before := QueueSnapshot(fast, slot)
		fastAlloc := make([]int, n)
		fast.Allocate(slot, fastAlloc)
		if err := CheckAllocation(slot, fastAlloc); err != nil {
			t.Fatalf("fast path: %v", err)
		}
		if err := CheckEq16(fast, before, slot, fastAlloc); err != nil {
			t.Fatalf("fast path: %v", err)
		}

		refAlloc := make([]int, n)
		ref.AllocateRef(slot, refAlloc)
		if err := CheckAllocation(slot, refAlloc); err != nil {
			t.Fatalf("reference path: %v", err)
		}

		got := EMAObjective(frozen, slot, fastAlloc)
		want := EMAObjective(frozen, slot, refAlloc)
		if !SameObjective(got, want) {
			t.Fatalf("objective mismatch: fast %v (alloc %v) vs ref %v (alloc %v)",
				got, fastAlloc, want, refAlloc)
		}
	})
}
