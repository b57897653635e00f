package main

import (
	"context"
	"errors"
	"time"

	"jointstream/internal/cell"
	"jointstream/internal/rng"
	"jointstream/internal/sched"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// churnAbandonFrac of the arriving sessions leave before their video ends,
// so the explicit-departure path runs beside natural completion.
const churnAbandonFrac = 0.1

// churnArrival is one generated arrival: the session, and after how many
// slots in service it abandons (0 = plays to the end).
type churnArrival struct {
	sess *workload.Session
	stay int
}

// churnDeparture is a planned abandonment of an admitted session.
type churnDeparture struct {
	idx int
	ser uint64
}

// cellChurn uses the engine of cellDense the other way round: an unbounded
// open cell where sessions are admitted, complete, abandon and are reaped
// while it ticks, so writes to the session table and the pipelined window
// fills run beside the reads. Open loop on the slot clock: the Poisson
// arrivals of each slot are fixed by the seed and do not wait for the
// engine; the admission controller refuses what does not fit.
type cellChurn struct {
	o        *options
	cfg      cell.OpenConfig
	initial  []*workload.Session
	arrivals [][]churnArrival // by slot
	maxStay  int
}

func (w *cellChurn) setup() error {
	sz := w.o.sz
	src := rng.New(w.o.seed)
	wc := workload.PaperDefaults(0).WithAvgSize(units.KB(sz.ChurnPlaySec * meanRateKBps))
	gen, err := workload.NewChurnGen(wc, src.Split())
	if err != nil {
		return err
	}
	// The initial population is caught mid-playback, each with a uniform
	// share of its video left, so completions start at slot 0 and not in
	// one burst a mean playback later.
	w.initial = make([]*workload.Session, sz.ChurnInitial)
	for i := range w.initial {
		s, err := gen.Next(i, 0)
		if err != nil {
			return err
		}
		s.Size = units.KB(float64(s.Size) * src.Uniform(0.02, 1))
		w.initial[i] = s
	}
	// Poisson arrivals at ChurnOverload times the rate at which a full
	// initial population completes.
	perSlot := sz.ChurnOverload * float64(sz.ChurnInitial) / sz.ChurnPlaySec
	w.maxStay = max(int(sz.ChurnPlaySec/2), 2)
	w.arrivals = make([][]churnArrival, sz.ChurnSlots)
	id := sz.ChurnInitial
	for at := src.Exp(perSlot); int(at) < sz.ChurnSlots; at += src.Exp(perSlot) {
		s, err := gen.Next(id, int(at))
		if err != nil {
			return err
		}
		a := churnArrival{sess: s}
		if src.Bool(churnAbandonFrac) {
			a.stay = 1 + src.Intn(w.maxStay)
		}
		w.arrivals[int(at)] = append(w.arrivals[int(at)], a)
		id++
	}
	c := cell.PaperConfig()
	c.Capacity = units.KBps(float64(sz.ChurnMaxSessions) * meanRateKBps / loadFactor)
	c.RunFullHorizon = true
	w.cfg = cell.OpenConfig{Cell: c, Unbounded: true, MaxSessions: sz.ChurnMaxSessions, TileSlots: sz.ChurnTile}
	return nil
}

func (w *cellChurn) rep(tr *tracer, chk *checker) (*repResult, error) {
	sz := w.o.sz
	res := &repResult{layer: map[string]float64{}}
	names := struct{ region, open, start, admit, depart, advance, quantile, finish int32 }{
		tr.name(regionSpan, 1), tr.name("cell.NewOpen", 1), tr.name("open.Start", 1), tr.name("open.Admit", 1),
		tr.name("open.DepartSerial", 1), tr.name("open.AdvanceTo", 1), tr.name("open.RebufferQuantile", 1), tr.name("open.Finish", 1)}

	t := time.Now()
	id := tr.begin(names.open)
	o, err := cell.NewOpen(w.cfg, w.initial, traceSched(tr, sched.NewDefault()))
	tr.end(id)
	if err != nil {
		return nil, err
	}
	defer o.Stop()
	id = tr.begin(names.start)
	err = o.Start(context.Background())
	tr.end(id)
	if err != nil {
		return nil, err
	}
	departures := make([][]churnDeparture, sz.ChurnSlots+w.maxStay+1)
	for i := range departures {
		departures[i] = make([]churnDeparture, 0, 8)
	}
	res.slotNS = make([]float64, 0, sz.ChurnSlots)
	res.prep = time.Since(t)

	res.main = beginRegion()
	rs := tr.begin(names.region)
	for n := 0; n < sz.ChurnSlots; n++ {
		for _, d := range departures[n] {
			t := tr.now()
			_, err := o.DepartSerial(d.idx, d.ser)
			tr.leaf(names.depart, t)
			if err != nil {
				return nil, err
			}
		}
		for _, a := range w.arrivals[n] {
			t := tr.now()
			idx, err := o.Admit(a.sess)
			tr.leaf(names.admit, t)
			if !chk.ok(err == nil || errors.Is(err, cell.ErrOverCapacity), "Admit at slot %d: %v", n, err) || err != nil {
				continue
			}
			if a.stay > 0 {
				ser, _ := o.Serial(idx)
				departures[n+a.stay] = append(departures[n+a.stay], churnDeparture{idx, ser})
			}
		}
		t := time.Now()
		id := tr.begin(names.advance)
		_, err := o.AdvanceTo(n + 1)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		res.slotNS = append(res.slotNS, float64(time.Since(t)))
		res.userSlots += float64(o.Stats().InService)
	}
	st := o.Stats()
	t = time.Now()
	id = tr.begin(names.quantile)
	p99 := o.RebufferQuantile(0.99)
	tr.end(id)
	res.layer["open.quantile_us"] = micros(time.Since(t))
	t = time.Now()
	id = tr.begin(names.finish)
	o.Finish()
	tr.end(id)
	res.layer["open.finish_ms"] = millis(time.Since(t))
	tr.end(rs)
	res.main.end()

	chk.ok(st.Admitted == st.Completed+st.Departed+st.InService,
		"ledger: admitted %d != completed %d + departed %d + in service %d", st.Admitted, st.Completed, st.Departed, st.InService)
	chk.ok(p99 >= 0, "rebuffering p99 %v", p99)
	// After Finish every admitted session has ended and is in the totals.
	end := o.Stats()
	res.slots = float64(sz.ChurnSlots)
	res.ended = float64(st.Completed + st.Departed)
	res.users = float64(end.Admitted)
	res.energyMJ = float64(end.EndedEnergy)
	res.rebufferS = float64(end.EndedRebuffer)
	res.layer["open.admitted"] = float64(st.Admitted)
	res.layer["open.rejected"] = float64(st.Rejected)
	res.layer["open.completed"] = float64(st.Completed)
	res.layer["open.departed"] = float64(st.Departed)
	res.layer["open.in_service_mean"] = res.userSlots / res.slots
	w.slotLayers(res)
	return res, nil
}

// slotLayers splits AdvanceTo times into steady slots and the slots that
// need the next link window (the last slot of each window, as in the closed
// engine), and says how much of the run sat in the tail.
func (w *cellChurn) slotLayers(res *repResult) {
	var steady, roll []float64
	for n, ns := range res.slotNS {
		if (n+1)%w.o.sz.ChurnTile == 0 {
			roll = append(roll, ns/1e3)
		} else {
			steady = append(steady, ns/1e3)
		}
	}
	tail, limit := 0.0, 10*median(res.slotNS)
	for _, ns := range res.slotNS {
		if ns > limit {
			tail += ns
		}
	}
	res.layer["open.steady_us_p50"] = median(steady)
	res.layer["open.rollover_us_p50"] = median(roll)
	res.layer["open.rollover_x"] = ratio(median(roll), median(steady))
	res.layer["open.tail_share"] = ratio(tail, float64(res.main.wall))
}
