//go:build !race

// The race detector instruments allocations, so this file is left out of
// -race runs, like internal/simtest/alloc_test.go.

package gateway

import (
	"testing"
	"time"

	"jointstream/internal/sched"
)

// steadyAllocs serves k long sessions from a gateway that has churned
// 2k short ones, and returns the allocations and grants of the given
// number of Steps: the receiver queues and, with async delivery, the
// workers and their snapshot buffers all exist before the count starts.
func steadyAllocs(t *testing.T, cfg Config, k, slots int) (allocs float64, grants int) {
	t.Helper()
	g, err := New(cfg, sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	// Churn first, so that the view's rows have been given up and taken
	// again; then K videos long enough to outlast the measured window.
	churn(t, g, k, 2*k, 200)
	for g.anyInService() {
		if _, err := g.Step(); err != nil {
			t.Fatal(err)
		}
	}
	live := churn(t, g, k, k, 1_000_000)
	// AllocsPerRun's own warm-up run grows what the first slots grow, so
	// the count is of the second run alone.
	allocs = testing.AllocsPerRun(1, func() {
		grants = 0
		for i := 0; i < slots; i++ {
			alloc, err := g.Step()
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range alloc {
				if a > 0 {
					grants++
				}
			}
			for _, ep := range live {
				ep.Advance()
			}
		}
	})
	if len(g.live) != k {
		t.Fatalf("a session ended inside the measured window: %d live", len(g.live))
	}
	return allocs, grants
}

// TestStepSteadyStateZeroAllocs: with nobody attaching and nobody
// finishing, a synchronous Step allocates nothing — the slot view, the
// allocation it returns and the receiver queues are all the gateway's own.
// One run is 600 slots — over two rotations of the windowed histograms —
// so the count is exact, not an average rounded down.
func TestStepSteadyStateZeroAllocs(t *testing.T) {
	const slots = 600
	if allocs, _ := steadyAllocs(t, churnConfig(200), 200, slots); allocs != 0 {
		t.Errorf("%v allocations in %d steady-state Steps, want 0", allocs, slots)
	}
}

// TestAsyncStepNoPerGrantAllocs: an async grant is copied into its
// session's own snapshot buffer, reused once the delivery completes, so
// what a steady-state async Step allocates (the deadline's timer) does
// not grow with the grants it hands out.
func TestAsyncStepNoPerGrantAllocs(t *testing.T) {
	const slots = 300
	cfg := churnConfig(200)
	cfg.Policy = Policy{AsyncDelivery: true, SlotDeadline: 10 * time.Second}
	allocs, grants := steadyAllocs(t, cfg, 200, slots)
	t.Logf("%v allocations, %d grants in %d Steps", allocs, grants, slots)
	if grants < slots {
		t.Fatalf("%d grants in %d Steps: too few to tell", grants, slots)
	}
	if allocs > 4*slots {
		t.Errorf("%v allocations for %d grants in %d Steps, want at most 4 a Step", allocs, grants, slots)
	}
}
