package sched

import (
	"testing"

	"jointstream/internal/rng"
	"jointstream/internal/rrc"
)

// TestEMABlockMatchesDeque is the bit-for-bit gate for the block-minima
// kernel: across user counts, capacities (including capacity < maxPhi,
// capacity equal to one block, and capacities that leave partial blocks)
// and random queue evolutions, the block solver must return the EXACT
// allocation the monotone-deque solver returns — not merely the same
// objective — so swapping the kernel can never move a checked-in figure.
// Queues are advanced by the block path's own decisions and mirrored into
// the deque clone each step, so both solvers always see identical state.
func TestEMABlockMatchesDeque(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 7, 10, 64, 205} {
		for n := 1; n <= 24; n++ {
			src := rng.New(uint64(9000*capacity + n))
			e := newEMA(t, 0.05+src.Float64()*2)
			for step := 0; step < 8; step++ {
				slot := randomSlotForDP(src, n, capacity)

				dq := cloneEMA(e)
				blockAlloc := make([]int, n)
				dequeAlloc := make([]int, n)
				e.Allocate(slot, blockAlloc)
				dq.AllocateDeque(slot, dequeAlloc)

				for i := range blockAlloc {
					if blockAlloc[i] != dequeAlloc[i] {
						t.Fatalf("cap=%d n=%d step=%d: allocations diverge at user %d: block %v deque %v",
							capacity, n, step, i, blockAlloc, dequeAlloc)
					}
				}
				for i := 0; i < n; i++ {
					if e.Queue(i) != dq.Queue(i) {
						t.Fatalf("cap=%d n=%d step=%d: queue %d diverged: block %v deque %v",
							capacity, n, step, i, e.Queue(i), dq.Queue(i))
					}
				}
			}
		}
	}
}

// TestEMABlockMatchesDequeAdversarial drives the same identity through
// tie-heavy instances: clusters of users sharing identical rate/signal
// (equal perUnit lines collide in the window minima) and tiny windows
// (maxPhi = 1) where every state sits on a block boundary.
func TestEMABlockMatchesDequeAdversarial(t *testing.T) {
	src := rng.New(4242)
	for trial := 0; trial < 60; trial++ {
		capacity := 1 + src.Intn(40)
		n := 2 + src.Intn(12)
		users := make([]user, n)
		proto := stdUser(400, -80, 1+src.Intn(4))
		for i := range users {
			users[i] = proto // identical lines → maximal tie pressure
			if src.Bool(0.25) {
				users[i].MaxUnits = 1
			}
		}
		slot := makeSlot(capacity, users...)

		e := newEMA(t, 0.5)
		dq := cloneEMA(e)
		blockAlloc := make([]int, n)
		dequeAlloc := make([]int, n)
		e.Allocate(slot, blockAlloc)
		dq.AllocateDeque(slot, dequeAlloc)
		for i := range blockAlloc {
			if blockAlloc[i] != dequeAlloc[i] {
				t.Fatalf("trial %d cap=%d n=%d: allocations diverge at user %d: block %v deque %v",
					trial, capacity, n, i, blockAlloc, dequeAlloc)
			}
		}
	}
}

// BenchmarkEMADP compares the per-slot DP cost of the block kernel
// against the deque it replaced at the paper-scale shape (capacity 205).
func BenchmarkEMADP(b *testing.B) {
	src := rng.New(7)
	const n, capacity = 30, 205
	slot := randomSlotForDP(src, n, capacity)
	alloc := make([]int, n)
	b.Run("block", func(b *testing.B) {
		e, err := NewEMA(EMAConfig{V: 0.5, RRC: rrc.Paper3G()})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range alloc {
				alloc[j] = 0
			}
			e.Allocate(slot, alloc)
		}
	})
	b.Run("deque", func(b *testing.B) {
		e, err := NewEMA(EMAConfig{V: 0.5, RRC: rrc.Paper3G()})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range alloc {
				alloc[j] = 0
			}
			e.AllocateDeque(slot, alloc)
		}
	})
}
