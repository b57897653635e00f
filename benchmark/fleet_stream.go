package main

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"jointstream/internal/cell"
	"jointstream/internal/deploy"
	"jointstream/internal/sched"
	"jointstream/internal/workload"
)

// fleetStream runs many small cells through the epoch-clocked streaming
// runner at the paper's 40 users and 20 MB/s per cell (load 0.9), once
// with one worker and once with all cores. With cells this small the
// epoch loop, the pool fan-out, the engine's small-N serial path and the
// per-site histogram folds dominate. Closed loop, one caller.
type fleetStream struct {
	o  *options
	wl []*workload.Session
	// Arm A, one worker, runs once per set-up: its totals are what every
	// all-cores repetition must reproduce, its time the base of scaling_x.
	one   *deploy.FleetMetrics
	oneMS float64
}

func (w *fleetStream) setup() error {
	wc := workload.PaperDefaults(w.o.sz.FleetCells * w.o.sz.FleetUsersPerCell)
	wc.StatelessSignal = true
	wl, err := shuffledSessions(wc, w.o.seed)
	w.wl, w.one = wl, nil
	return err
}

func (w *fleetStream) config(workers int) deploy.Config {
	sz := w.o.sz
	dep := deploy.Config{Policy: deploy.RoundRobin, Stream: true, EpochSlots: sz.FleetEpochSlots, Workers: workers}
	for i := 0; i < sz.FleetCells; i++ {
		c := cell.PaperConfig()
		c.MaxSlots = sz.FleetSlots
		c.RunFullHorizon = true
		c.Workers = 1
		c.LinkTileSlots = sz.FleetTile
		dep.Sites = append(dep.Sites, deploy.Site{Name: fmt.Sprintf("cell-%04d", i), Cell: c})
	}
	return dep
}

func (w *fleetStream) rep(tr *tracer, chk *checker) (*repResult, error) {
	res := &repResult{layer: map[string]float64{}}
	names := struct{ region, run, epoch, finish, alloc int32 }{
		tr.name(regionSpan, 1), tr.name("deploy.Run", 1), tr.name("deploy.epoch", 1),
		tr.name("deploy.finish", 1), tr.name("sched.Allocate", sampleOneIn)}
	// Arm B (workers = 0, every core) is the timed region the end-to-end
	// metrics report and the only one traced.
	for _, workers := range []int{1, 0} {
		if workers == 1 && w.one != nil {
			continue
		}
		tr := tr
		if workers == 1 {
			tr = nil
		}
		t := time.Now()
		dep := w.config(workers)
		var epochMS []float64
		var open int32 = -1
		last := time.Now()
		dep.OnEpoch = func(deploy.EpochInfo) {
			now := time.Now()
			epochMS = append(epochMS, millis(now.Sub(last)))
			last = now
			tr.end(open)
			open = tr.begin(names.epoch)
		}
		// newSched may be called from worker goroutines; one site in
		// sampleOneIn gets the timing decorator.
		var built atomic.Int64
		newSched := func() (sched.Scheduler, error) {
			if n := built.Add(1); tr != nil && n%sampleOneIn == 0 {
				return tracedSched{Scheduler: sched.NewDefault(), tr: tr, name: names.alloc}, nil
			}
			return sched.NewDefault(), nil
		}
		res.prep = time.Since(t)

		rg := beginRegion()
		rs := tr.begin(names.region)
		run := tr.begin(names.run)
		open, last = tr.begin(names.epoch), time.Now()
		out, err := deploy.Run(context.Background(), dep, w.wl, newSched)
		// What follows the last barrier is the fold of the finished cells.
		tr.rename(open, names.finish)
		tr.end(open)
		tr.end(run)
		tr.end(rs)
		rg.end()
		if err != nil {
			return nil, err
		}
		fleet := out.Fleet
		if !chk.ok(fleet != nil && fleet.Users == len(w.wl), "fleet folded %+v, want %d users", fleet, len(w.wl)) {
			return nil, fmt.Errorf("fleet run folded no metrics")
		}
		if workers == 1 {
			w.one, w.oneMS = fleet, millis(rg.wall)
			res.reference = time.Since(t)
			continue
		}
		one := w.one
		res.main = rg
		res.slots = float64(fleet.Slots)
		res.users = float64(fleet.Users)
		res.userSlots = res.users * res.slots
		res.energyMJ = float64(fleet.Energy)
		res.rebufferS = float64(fleet.Rebuffer)
		res.layer["deploy.w1_ms"] = w.oneMS
		res.layer["deploy.wmax_ms"] = millis(rg.wall)
		res.layer["deploy.run_ms"] = millis(rg.wall)
		res.layer["deploy.epochs"] = float64(fleet.Epochs)
		res.layer["deploy.epoch_ms_p50"] = median(epochMS)
		res.layer["deploy.epoch_ms_max"] = quantile(epochMS, 1)
		res.layer["scaling_x"] = ratio(w.oneMS, millis(rg.wall))
		if tr != nil {
			busy := float64(min(runtime.GOMAXPROCS(0), len(dep.Sites))) * millis(rg.wall)
			res.layer["deploy.sched_share"] = ratio(sampleOneIn*sum(tr.durations("sched.Allocate"))/1e6, busy)
		}

		chk.ok(fleet.Energy == one.Energy && fleet.TailEnergy == one.TailEnergy && fleet.Rebuffer == one.Rebuffer &&
			fleet.ClampEvents == one.ClampEvents,
			"one worker and all cores disagree: energy %v vs %v, rebuffering %v vs %v", one.Energy, fleet.Energy, one.Rebuffer, fleet.Rebuffer)
		perEpoch := 0.0
		for _, e := range fleet.PerEpoch {
			perEpoch += float64(e.Energy)
		}
		chk.ok(closeTo(perEpoch, res.energyMJ), "per-epoch energy sums to %v mJ, fleet energy is %v mJ", perEpoch, res.energyMJ)
	}
	return res, nil
}
