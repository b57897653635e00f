package cell

import (
	"testing"

	"jointstream/internal/rng"
	"jointstream/internal/sched"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// BenchmarkResultMetrics compares the finalized (memoized) metric
// accessors against the per-call scan over res.Users they replace, on a
// paper-scale (N = 40) run. Callers that plot sweeps read PE/PC once
// per point; experiments and tests hammer every accessor per run, which
// is where the memo pays.
func BenchmarkResultMetrics(b *testing.B) {
	cfg := PaperConfig()
	cfg.MaxSlots = 300
	cfg.RunFullHorizon = true
	wl, err := workload.Generate(workload.PaperDefaults(40), rng.New(8))
	if err != nil {
		b.Fatal(err)
	}
	sim, err := New(cfg, wl, sched.NewDefault())
	if err != nil {
		b.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		b.Fatal(err)
	}
	var sinkE units.MJ
	var sinkS units.Seconds
	readAll := func() {
		sinkE += res.PE() + res.TotalEnergy() + res.TotalTailEnergy() + res.TransEnergyPerActiveSlot()
		sinkS += res.PC() + res.TotalRebuffer()
	}
	b.Run("memoized", func(b *testing.B) {
		res.finalize()
		for i := 0; i < b.N; i++ {
			readAll()
		}
	})
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res.agg = nil
			readAll()
		}
	})
	if sinkE < 0 || sinkS < 0 {
		b.Fatal("impossible negative totals")
	}
}
