package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"jointstream/internal/cell"
	"jointstream/internal/metrics"
	"jointstream/internal/pool"
	"jointstream/internal/radio"
	"jointstream/internal/rng"
	"jointstream/internal/sched"
	"jointstream/internal/signal"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// poolShards is the shard count of a 100 000-user tick (256 users a shard).
const poolShards = 391

// sink keeps the compiler from dropping the probed calls.
var sink float64

// layerProbes times the leaf layers no workload can isolate from outside
// — one signal sample, one radio lookup, one pool dispatch, one histogram
// operation — and the decision cost of each of the nine schedulers. They
// do not depend on the workload and run in every traced run.
func layerProbes(o *options, chk *checker) (map[string]float64, error) {
	out := map[string]float64{}
	calls := o.sz.ProbeCalls
	per := func(t time.Time, n int) float64 { return float64(time.Since(t).Nanoseconds()) / float64(n) }

	sine, err := signal.NewStatelessSine(workload.PaperDefaults(1).Signal, o.seed)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	for i := 0; i < calls; i++ {
		sink += float64(sine.At(i))
	}
	out["signal.at_ns"] = per(t, calls)

	lut, err := radio.NewTable(radio.Paper3G(), signal.DefaultBounds.Min, signal.DefaultBounds.Max, 4096)
	if err != nil {
		return nil, err
	}
	sigs := make([]units.DBm, 1024)
	src := rng.New(o.seed)
	for i := range sigs {
		sigs[i] = units.DBm(src.Uniform(float64(signal.DefaultBounds.Min), float64(signal.DefaultBounds.Max)))
	}
	t = time.Now()
	for i := 0; i < calls; i++ {
		v, e := lut.Lookup(sigs[i%len(sigs)])
		sink += float64(v) + float64(e)
	}
	out["radio.lookup_ns"] = per(t, calls)

	dispatches := max(calls/1000, 1)
	for _, arm := range []struct {
		name    string
		workers int
	}{{"pool.shard_dispatch_w1_us", 1}, {"pool.shard_dispatch_us", runtime.GOMAXPROCS(0)}} {
		t = time.Now()
		for i := 0; i < dispatches; i++ {
			pool.Shard(arm.workers, poolShards, func(int) {})
		}
		out[arm.name] = per(t, dispatches) / 1e3
	}
	t = time.Now()
	for i := 0; i < dispatches; i++ {
		if err := pool.ForEachN(context.Background(), 0, poolShards, func(context.Context, int) error { return nil }); err != nil {
			return nil, err
		}
	}
	out["pool.foreach_dispatch_us"] = per(t, dispatches) / 1e3

	// The shapes the engine uses: 64 bins, four retained windows.
	a, err := metrics.NewStreamingHist(64, 1)
	if err != nil {
		return nil, err
	}
	b := a.Clone()
	win, err := metrics.NewWindowedHist(4, 64, 1)
	if err != nil {
		return nil, err
	}
	t = time.Now()
	for i := 0; i < calls; i++ {
		a.Observe(float64(i % 97))
	}
	out["metrics.observe_ns"] = per(t, calls)
	for i := 0; i < 4096; i++ {
		b.Observe(float64(i % 61))
		win.Observe(float64(i % 61))
		if i%1024 == 1023 {
			win.Rotate()
		}
	}
	t = time.Now()
	for i := 0; i < dispatches; i++ {
		if err := a.Merge(b); err != nil {
			return nil, err
		}
	}
	out["metrics.merge_us"] = per(t, dispatches) / 1e3
	t = time.Now()
	for i := 0; i < dispatches; i++ {
		sink += win.Quantile(0.99)
	}
	out["metrics.quantile_us"] = per(t, dispatches) / 1e3

	return out, schedulerColumn(o, chk, out)
}

// schedulerColumn is the decision-cost column the paper's related work
// prints beside quality: each scheduler runs the paper cell once and the
// median time of one Allocate is reported under its name.
func schedulerColumn(o *options, chk *checker, out map[string]float64) error {
	cfg := cell.PaperConfig()
	cfg.MaxSlots = o.sz.SchedSlots
	cfg.RunFullHorizon = true
	wl, err := workload.Generate(workload.PaperDefaults(o.sz.SchedUsers), rng.New(o.seed))
	if err != nil {
		return err
	}
	link, err := cell.CompileLink(cfg, wl)
	if err != nil {
		return err
	}
	cfg.Link = link
	build := []func() (sched.Scheduler, error){
		func() (sched.Scheduler, error) { return sched.NewDefault(), nil },
		func() (sched.Scheduler, error) { return sched.NewThrottling(1.25) },
		func() (sched.Scheduler, error) { return sched.NewOnOff(10, 40) },
		func() (sched.Scheduler, error) { return sched.NewSALSA(15, 0.3) },
		func() (sched.Scheduler, error) { return sched.NewEStreamer(30, 5) },
		func() (sched.Scheduler, error) { return sched.NewProportionalFair(100) },
		func() (sched.Scheduler, error) {
			return sched.NewRTMA(sched.RTMAConfig{Budget: 950, Radio: cfg.Radio, RRC: cfg.RRC})
		},
		func() (sched.Scheduler, error) { return sched.NewEMA(sched.EMAConfig{V: 0.2, RRC: cfg.RRC}) },
		func() (sched.Scheduler, error) {
			return sched.NewPredictive(sched.PredictiveConfig{Lookahead: 5, Forecast: link.Forecast()})
		},
	}
	seen := map[string]bool{}
	for _, b := range build {
		s, err := b()
		if err != nil {
			return err
		}
		tr := newTracer(o.sz.SchedSlots)
		sim, err := cell.New(cfg, wl, traceSched(tr, s))
		if err != nil {
			return err
		}
		res, err := sim.Run()
		if err != nil {
			return err
		}
		durs := tr.durations("sched.Allocate")
		chk.ok(len(durs) == res.Slots && res.ClampEvents == 0,
			"%s: %d Allocate calls in %d slots, %d clamped", s.Name(), len(durs), res.Slots, res.ClampEvents)
		out[fmt.Sprintf("sched.%s.alloc_us_p50", s.Name())] = median(durs) / 1e3
		seen[s.Name()] = true
	}
	chk.ok(len(seen) == len(build), "scheduler names collide: %v", seen)
	return nil
}
