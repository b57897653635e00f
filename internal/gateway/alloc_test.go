//go:build !race

// The race detector instruments allocations, so this file is left out of
// -race runs, like internal/simtest/alloc_test.go.

package gateway

import (
	"testing"

	"jointstream/internal/sched"
)

// TestStepSteadyStateZeroAllocs: with nobody attaching and nobody
// finishing, a synchronous Step allocates nothing — the slot view, the
// allocation it returns and the receiver queues are all the gateway's own.
func TestStepSteadyStateZeroAllocs(t *testing.T) {
	const k = 200
	g, err := New(churnConfig(k), sched.NewDefault())
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
	// One run is 600 slots — over two rotations of the windowed histograms
	// — so the count is exact, not an average rounded down; AllocsPerRun's
	// own warm-up run grows what the first slots grow.
	const slots = 600
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < slots; i++ {
			if _, err := g.Step(); err != nil {
				t.Fatal(err)
			}
			for _, ep := range live {
				ep.Advance()
			}
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations in %d steady-state Steps, want 0", allocs, slots)
	}
	if len(g.live) != k {
		t.Fatalf("a session ended inside the measured window: %d live", len(g.live))
	}
}
