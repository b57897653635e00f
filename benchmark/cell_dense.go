package main

import (
	"context"
	"math"
	"time"

	"jointstream/internal/cell"
	"jointstream/internal/rng"
	"jointstream/internal/sched"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// loadFactor is Σ required rate ÷ capacity on every engine workload: high
// enough that the scheduler has to choose, low enough that users play.
const loadFactor = 0.9

// meanRateKBps is the mean of the paper's U(300, 600) KB/s required rate.
const meanRateKBps = 450

// cellDense drives one closed cell of DenseUsers users slot by slot through
// the stepped engine, once with one worker and once with all cores. The tick
// kernels and the tiled link-window refill do all the work; the Default
// scheduler is under 1 % of it. Closed loop, one caller.
type cellDense struct {
	o   *options
	wl  []*workload.Session
	cfg cell.Config
	// Arm A, one worker, runs once per set-up: its result is what every
	// all-cores repetition must reproduce, its time the base of scaling_x.
	one   *cell.Result
	oneMS float64
}

func (w *cellDense) setup() error {
	sz := w.o.sz
	wl, err := shuffledSessions(workload.PaperDefaults(sz.DenseUsers), w.o.seed)
	if err != nil {
		return err
	}
	workload.PrewarmAll(0, wl, sz.DenseSlots)
	w.wl = wl
	w.cfg = cell.PaperConfig()
	w.cfg.Capacity = units.KBps(float64(sz.DenseUsers) * meanRateKBps / loadFactor)
	w.cfg.MaxSlots = sz.DenseSlots
	w.cfg.RunFullHorizon = true
	w.cfg.LinkTileSlots = sz.DenseTile
	w.one = nil
	return nil
}

func (w *cellDense) rep(tr *tracer, chk *checker) (*repResult, error) {
	sz := w.o.sz
	res := &repResult{layer: map[string]float64{}}
	names := struct{ region, new, start, advance, finish int32 }{
		tr.name(regionSpan, 1), tr.name("cell.New", 1), tr.name("cell.Start", 1),
		tr.name("cell.Advance", 1), tr.name("cell.Finish", 1)}
	// Arm B (workers = 0, every core) is the timed region the end-to-end
	// metrics report and the only one traced.
	for _, workers := range []int{1, 0} {
		if workers == 1 && w.one != nil {
			continue
		}
		cfg := w.cfg
		cfg.Workers = workers
		tr := tr
		if workers == 1 {
			tr = nil
		}
		armStart := time.Now()
		id := tr.begin(names.new)
		sim, err := cell.New(cfg, w.wl, traceSched(tr, sched.NewDefault()))
		tr.end(id)
		if err != nil {
			return nil, err
		}
		res.prep = time.Since(armStart)
		res.layer["cell.new_ms"] = millis(res.prep)

		slotNS := make([]float64, 0, sz.DenseSlots)
		rg := beginRegion()
		rs := tr.begin(names.region)
		id = tr.begin(names.start)
		err = sim.Start(context.Background())
		tr.end(id)
		if err != nil {
			return nil, err
		}
		for n := 0; n < sz.DenseSlots; n++ {
			t := time.Now()
			id := tr.begin(names.advance)
			_, err := sim.Advance(n + 1)
			tr.end(id)
			if err != nil {
				return nil, err
			}
			slotNS = append(slotNS, float64(time.Since(t)))
		}
		t := time.Now()
		id = tr.begin(names.finish)
		out := sim.Finish()
		tr.end(id)
		finish := time.Since(t)
		tr.end(rs)
		rg.end()

		if workers == 1 {
			w.one, w.oneMS = out, millis(rg.wall)
			res.reference = time.Since(armStart)
			continue
		}
		one := w.one
		res.main, res.slotNS = rg, slotNS
		res.slots = float64(out.Slots)
		res.userSlots = float64(out.Slots) * float64(len(out.Users))
		res.users = float64(len(out.Users))
		res.energyMJ = float64(out.TotalEnergy())
		res.rebufferS = float64(out.TotalRebuffer())
		res.layer["cell.w1_ms"] = w.oneMS
		res.layer["cell.wmax_ms"] = millis(rg.wall)
		res.layer["cell.finish_ms"] = millis(finish)
		res.layer["cell.clamp_events"] = float64(out.ClampEvents)
		res.layer["scaling_x"] = ratio(w.oneMS, millis(rg.wall))
		w.slotLayers(res)

		chk.ok(out.TotalEnergy() == one.TotalEnergy() && out.TotalTailEnergy() == one.TotalTailEnergy() &&
			out.TotalRebuffer() == one.TotalRebuffer() && out.ClampEvents == one.ClampEvents,
			"one worker and all cores disagree: energy %v vs %v, rebuffering %v vs %v",
			one.TotalEnergy(), out.TotalEnergy(), one.TotalRebuffer(), out.TotalRebuffer())
		perSlot := 0.0
		for _, s := range out.PerSlot {
			perSlot += float64(s.Energy)
		}
		chk.ok(closeTo(perSlot, res.energyMJ), "per-slot energy sums to %v mJ, per-user energy to %v mJ", perSlot, res.energyMJ)
	}
	if tr != nil {
		t := time.Now()
		link, err := cell.CompileLinkTiled(w.cfg, w.wl, sz.DenseTile)
		if err != nil {
			return nil, err
		}
		res.layer["cell.link_compile_ms"] = millis(time.Since(t))
		res.layer["cell.link_mb"] = float64(link.MemoryBytes()) / (1 << 20)
	}
	return res, nil
}

// slotLayers splits the timed slots into steady ones and the ones that
// refill the link window. The engine fuses commit(n) with prepare(n+1), so
// the refill for window k lands in the last slot of window k-1.
func (w *cellDense) slotLayers(res *repResult) {
	var steady, roll []float64
	for n, ns := range res.slotNS {
		if (n+1)%w.o.sz.DenseTile == 0 && n+1 < len(res.slotNS) {
			roll = append(roll, ns/1e3)
		} else {
			steady = append(steady, ns/1e3)
		}
	}
	res.layer["cell.advance_ms"] = sum(res.slotNS) / 1e6
	res.layer["cell.steady_us_p50"] = median(steady)
	res.layer["cell.rollover_us_p50"] = median(roll)
	res.layer["cell.rollover_x"] = ratio(median(roll), median(steady))
	res.layer["cell.ns_per_user_slot"] = ratio(sum(res.slotNS), res.userSlots)
}

// closeTo compares two sums of the same terms taken in a different order.
func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// shuffledSessions generates a closed workload and puts it in random order.
// Generate gives user i the phase offset + 2πi/N with one offset per seed,
// and Default serves users in index order, so unshuffled the users it serves
// first share a phase and the run's energy hangs on that one draw (±25 %
// between seeds at N = 100 000); shuffled, every index range holds all phases.
func shuffledSessions(wc workload.Config, seed uint64) ([]*workload.Session, error) {
	src := rng.New(seed)
	wl, err := workload.Generate(wc, src)
	if err != nil {
		return nil, err
	}
	out := make([]*workload.Session, len(wl))
	for i, j := range src.Perm(len(wl)) {
		out[i] = wl[j]
		out[i].ID = i
	}
	return out, nil
}
