// Package jointstream's top-level benchmarks are the micro-benchmarks no
// workload of benchmark/ measures: the kernel gates (link-window refill,
// gateway Step), the schedulers' Allocate at N = 40 and N = 10 000, the
// quick sweep's allocation, and the ablations EXPERIMENTS.md draws
// conclusions from. Everything end to end — figures, sweep, dense tick,
// fleet, churn — is timed by `bash benchmark/run.sh` and recorded in
// results/BENCH_benchmark*.json.
package jointstream

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"jointstream/internal/cell"
	"jointstream/internal/experiments"
	"jointstream/internal/gateway"
	"jointstream/internal/radio"
	"jointstream/internal/rng"
	"jointstream/internal/rrc"
	"jointstream/internal/sched"
	"jointstream/internal/signal"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// --- algorithm micro-benchmarks -------------------------------------

// benchSlot builds a representative 40-user slot.
func benchSlot(users, capacityUnits int) (*sched.Slot, []int) {
	src := rng.New(9)
	c := &sched.Columns{
		Active:      make([]bool, users),
		Sig:         make([]units.DBm, users),
		LinkRate:    make([]units.KBps, users),
		EnergyPerKB: make([]units.MJ, users),
		Rate:        make([]units.KBps, users),
		BufferSec:   make([]units.Seconds, users),
		RemainingKB: make([]units.KB, users),
		TailGap:     make([]units.Seconds, users),
		NeverActive: make([]bool, users),
		MaxUnits:    make([]int32, users),
	}
	for i := 0; i < users; i++ {
		sig := units.DBm(src.Uniform(-110, -50))
		link := units.KBps(65.8*float64(sig) + 7567)
		c.Active[i] = true
		c.Sig[i] = sig
		c.LinkRate[i] = link
		c.EnergyPerKB[i] = units.MJ(-0.167 + 1560/float64(link))
		c.Rate[i] = units.KBps(src.Uniform(300, 600))
		c.RemainingKB[i] = 1e9
		c.MaxUnits[i] = int32(float64(link) / 100)
	}
	slot := &sched.Slot{Tau: 1, Unit: 100, CapacityUnits: capacityUnits, Cols: c}
	return slot, make([]int, users)
}

func BenchmarkRTMAAllocate40Users(b *testing.B) {
	rt, err := sched.NewRTMA(sched.RTMAConfig{
		Budget: 950, Radio: cell.PaperConfig().Radio, RRC: rrc.Paper3G(),
	})
	if err != nil {
		b.Fatal(err)
	}
	slot, alloc := benchSlot(40, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range alloc {
			alloc[j] = 0
		}
		rt.Allocate(slot, alloc)
	}
}

// benchEMAAllocate times allocate on benchSlot(users, capacityUnits) over a
// fixed window of queue states: the queues evolve from rest for 256 slots —
// from every user wanting nothing or the one unit that dodges its tail to
// whole link bounds contending for the cell — and are then put back (the
// SetQueue stores stay on the clock), so ns/op does not depend on b.N.
// internal/sched's BenchmarkEMADP holds single regimes fixed instead.
func benchEMAAllocate(b *testing.B, users, capacityUnits int, allocate func(*sched.EMA, *sched.Slot, []int)) {
	b.Helper()
	em, err := sched.NewEMA(sched.EMAConfig{V: 0.2, RRC: rrc.Paper3G()})
	if err != nil {
		b.Fatal(err)
	}
	slot, alloc := benchSlot(users, capacityUnits)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%256 == 0 {
			for j := range alloc {
				em.SetQueue(j, 0)
			}
		}
		for j := range alloc {
			alloc[j] = 0
		}
		allocate(em, slot, alloc)
	}
}

// BenchmarkEMAAllocate40Users measures the production DP (want-clipped
// windows, banded rows, value-only passes, grants recovered at backtrack)
// at the paper's capacity (⌊τS/δ⌋ = 205 units);
// BenchmarkEMAAllocateRef40Users is the paper-literal quadratic DP on the
// same slots, so the speedup is visible from one `-bench 'EMAAllocate'`
// run, and BenchmarkEMAAllocate1kUsers the production DP at 25 × the users
// and the capacity — a decision's cost against N.
func BenchmarkEMAAllocate40Users(b *testing.B) {
	benchEMAAllocate(b, 40, 205, (*sched.EMA).Allocate)
}

func BenchmarkEMAAllocateRef40Users(b *testing.B) {
	benchEMAAllocate(b, 40, 205, (*sched.EMA).AllocateRef)
}

func BenchmarkEMAAllocate1kUsers(b *testing.B) {
	benchEMAAllocate(b, 1000, 5000, (*sched.EMA).Allocate)
}

// benchAllocLargeN measures one scheduler's Allocate at large N with the
// active list the engine would hand it (everyone active).
func benchAllocLargeN(b *testing.B, s sched.Scheduler, n int) {
	b.Helper()
	slot, alloc := benchSlot(n, 5*n)
	act := make([]int, n)
	for i := range act {
		act[i] = i
	}
	slot.ActiveList = act
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range alloc {
			alloc[j] = 0
		}
		s.Allocate(slot, alloc)
	}
}

func BenchmarkDefaultAllocate10kUsers(b *testing.B) {
	benchAllocLargeN(b, sched.NewDefault(), 10_000)
}

// BenchmarkRTMAAllocate10kUsers exercises the precomputed-key sort and
// the compacting water-filling rounds at two hundred fifty times the
// paper's N.
func BenchmarkRTMAAllocate10kUsers(b *testing.B) {
	rt, err := sched.NewRTMA(sched.RTMAConfig{
		Budget: 950, Radio: cell.PaperConfig().Radio, RRC: rrc.Paper3G(),
	})
	if err != nil {
		b.Fatal(err)
	}
	benchAllocLargeN(b, rt, 10_000)
}

// --- gateway slot loop ----------------------------------------------

// benchGatewayStep times gateway.Step with k sessions in service on
// LocalEndpoint + PatternSource (benchmark/'s gateway_churn shape: τ = 5 ms,
// 1 KB units, RRC energy, Default, load 0.9, videos of 75–225 KB), every
// completion replaced by a fresh Attach. The clock starts once the queues
// are up (64 slots) and `warm` sessions have been attached in all, so two
// tiers at different `warm` show what a Step costs per session in service
// as the sessions ever attached grow. ns/user-slot is Step time alone; allocs/slot covers Step and
// Attach, the sessions' two ends being built off the clock.
func benchGatewayStep(b *testing.B, k, warm int) {
	const slotsPerIter = 64
	g, err := gateway.New(gateway.Config{
		Tau: 0.005, Unit: 1, Capacity: units.KBps(float64(k) * 450 / 0.9),
		Radio: radio.Paper3G(), RRC: rrc.Paper3G(), QueueCap: 64,
	}, sched.NewDefault())
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	type session struct {
		ep   *gateway.LocalEndpoint
		src  *gateway.PatternSource
		want int64
	}
	src := rng.New(7)
	var reserve []session
	stock := func(n int) {
		for len(reserve) < n {
			sine := workload.PaperDefaults(1).Signal
			sine.Phase = src.Uniform(0, 2*math.Pi)
			tr, err := signal.NewStatelessSine(sine, src.Uint64())
			if err != nil {
				b.Fatal(err)
			}
			size := units.KB(math.Round(src.Uniform(75, 225)))
			ep, err := gateway.NewLocalEndpoint(tr, units.KBps(src.Uniform(300, 600)), false)
			if err != nil {
				b.Fatal(err)
			}
			ps, err := gateway.NewPatternSource(size)
			if err != nil {
				b.Fatal(err)
			}
			reserve = append(reserve, session{ep, ps, int64(float64(size) * 1000)})
		}
	}
	attached := 0
	attach := func() session {
		s := reserve[len(reserve)-1]
		reserve = reserve[:len(reserve)-1]
		if _, err := g.Attach(s.ep, s.src); err != nil {
			b.Fatal(err)
		}
		attached++
		return s
	}
	stock(k)
	live := make([]session, k)
	for i := range live {
		live[i] = attach()
	}
	var stepNS time.Duration
	slot := func() {
		start := time.Now()
		if _, err := g.Step(); err != nil {
			b.Fatal(err)
		}
		stepNS += time.Since(start)
		for i := range live {
			live[i].ep.Advance()
			if live[i].ep.ReceivedBytes() >= live[i].want {
				live[i] = attach()
			}
		}
	}
	for n := 0; n < slotsPerIter || attached < warm; n++ {
		stock(k)
		slot()
	}
	var before, after runtime.MemStats
	var mallocs uint64
	stepNS = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		stock(slotsPerIter * k / 8) // a session lasts some 60 slots
		runtime.ReadMemStats(&before)
		b.StartTimer()
		for n := 0; n < slotsPerIter; n++ {
			slot()
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
	}
	slots := float64(b.N * slotsPerIter)
	b.ReportMetric(float64(stepNS.Nanoseconds())/slots/float64(k), "ns/user-slot")
	b.ReportMetric(float64(mallocs)/slots, "allocs/slot")
}

// BenchmarkGatewayStep is the serving path's own slot loop at K = 500 in
// service, after K and after 10·K sessions attached in all: the second
// row over the first is the growth of a Step with uptime (1.4–1.9 when
// Step scanned every session ever attached).
func BenchmarkGatewayStep(b *testing.B) {
	const k = 500
	b.Run("k500_sessions1x", func(b *testing.B) { benchGatewayStep(b, k, k) })
	b.Run("k500_sessions10x", func(b *testing.B) { benchGatewayStep(b, k, 10*k) })
}

// BenchmarkQuickSweep is the Runner's 13 figures at quick scale through
// AllParallel, one fresh Runner an op: its B/op and allocs/op are what a
// sweep allocates — runs, their results and the scenarios' workloads —
// which paper_sweep's peak heap shows only as a high-water mark.
func BenchmarkQuickSweep(b *testing.B) {
	b.ReportAllocs()
	for range b.N {
		r, err := experiments.NewRunner(experiments.QuickOptions())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.AllParallel(context.Background(), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benches (DESIGN.md, Design choices) --------------------

// BenchmarkAblationUnitSize sweeps the data-unit size δ, the main knob of
// the EMA DP's state space.
func BenchmarkAblationUnitSize(b *testing.B) {
	for _, unit := range []units.KB{50, 100, 200, 400} {
		b.Run(unit.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := cell.PaperConfig()
				cfg.Unit = unit
				cfg.MaxSlots = 400
				cfg.RunFullHorizon = true
				wl, err := workload.Generate(workload.PaperDefaults(10), rng.New(3))
				if err != nil {
					b.Fatal(err)
				}
				for _, s := range wl {
					s.Size = 50 * units.Megabyte
				}
				em, err := sched.NewEMA(sched.EMAConfig{V: 0.2, RRC: cfg.RRC})
				if err != nil {
					b.Fatal(err)
				}
				sim, err := cell.New(cfg, wl, em)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sim.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationVSweep exercises the Lyapunov V trade-off directly.
func BenchmarkAblationVSweep(b *testing.B) {
	for _, v := range []float64{0.01, 0.1, 1} {
		b.Run(fmt.Sprintf("V=%g", v), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := cell.PaperConfig()
				cfg.MaxSlots = 400
				wl, err := workload.Generate(workload.PaperDefaults(10), rng.New(3))
				if err != nil {
					b.Fatal(err)
				}
				for _, s := range wl {
					s.Size = 50 * units.Megabyte
				}
				em, err := sched.NewEMA(sched.EMAConfig{V: v, RRC: cfg.RRC})
				if err != nil {
					b.Fatal(err)
				}
				sim, err := cell.New(cfg, wl, em)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sim.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
