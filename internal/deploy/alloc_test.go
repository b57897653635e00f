package deploy

import (
	"context"
	"runtime"
	"testing"

	"jointstream/internal/cell"
	"jointstream/internal/rng"
	"jointstream/internal/sched"
	"jointstream/internal/workload"
)

// TestFleetSiteAllocBudget holds what a closed fleet site costs against
// the closed engine it replaced: one fleet_stream-shaped site (40 users,
// 256 slots, tile 64, stateless traces) through Run may allocate at most
// 1.150 × its sessions cloned as Run clones them and run through cell.New
// and Run at RecordTotals, the level a site records (1.141× measured,
// go1.24). The difference is Run's own placement and epoch fold, and what
// the open engine keeps to fold and free its sessions — its copy of the
// session list, the retirement log, the freelist and one rebuffering
// histogram. Each side's figure is the least TotalAlloc of five runs.
func TestFleetSiteAllocBudget(t *testing.T) {
	wc := workload.PaperDefaults(40)
	wc.StatelessSignal = true
	sessions, err := workload.Generate(wc, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	c := cell.PaperConfig()
	c.MaxSlots, c.RunFullHorizon, c.Workers, c.LinkTileSlots = 256, true, 1, 64
	cfg := Config{Sites: []Site{{Name: "cell", Cell: c}}, Policy: RoundRobin, Workers: 1, EpochSlots: 64}
	// A site records totals only, so it is held against the closed engine
	// recording the same.
	closedCfg := c
	closedCfg.Record = cell.RecordTotals

	least := func(run func()) uint64 {
		best := ^uint64(0)
		var before, after runtime.MemStats
		for k := 0; k < 5; k++ {
			runtime.GC()
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	fleet := least(func() {
		if _, err := Run(context.Background(), cfg, sessions, defaultFactory); err != nil {
			t.Fatal(err)
		}
	})
	closed := least(func() {
		// The site's population, as Run clones it.
		clones := make([]*workload.Session, len(sessions))
		for i, s := range sessions {
			clone := *s
			clone.Signal = siteTrace(s, cfg.Sites[0], 0)
			clones[i] = &clone
		}
		sim, err := cell.New(closedCfg, clones, sched.NewDefault())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
	})
	ratio := float64(fleet) / float64(closed)
	t.Logf("fleet site %d B, closed engine %d B: %.3f×", fleet, closed, ratio)
	if ratio > 1.150 {
		t.Fatalf("a fleet site allocates %d B, %.3f× the closed engine's %d B (budget 1.150×)", fleet, ratio, closed)
	}
}
