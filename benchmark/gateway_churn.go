package main

import (
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"jointstream/internal/gateway"
	"jointstream/internal/radio"
	"jointstream/internal/rng"
	"jointstream/internal/rrc"
	"jointstream/internal/sched"
	"jointstream/internal/signal"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// gatewaySession is one generated client: how much it fetches, at what
// required rate, over which channel.
type gatewaySession struct {
	sizeKB units.KB
	rate   units.KBps
	trace  signal.Trace
}

// gatewayAttached is a session in service: its id at the gateway, the
// device end that counts what arrives, the bytes it is owed, and the slots
// it has waited for its first byte.
type gatewayAttached struct {
	id      int
	ep      *gateway.LocalEndpoint
	want    int64
	waiting int
}

// gatewayChurn steps the serving path back to back: GatewayInService
// sessions on in-memory endpoints, each completion replaced by a fresh
// Attach until GatewaySessions have completed. The gateway has its own slot
// loop that no other workload runs; the engine and the link tables do
// nothing here. Closed loop, one caller, no wall-clock ticker, so the
// numbers are the program and not the pacing.
type gatewayChurn struct {
	o        *options
	cfg      gateway.Config
	sessions []gatewaySession
}

func (w *gatewayChurn) setup() error {
	sz := w.o.sz
	src := rng.New(w.o.seed)
	sine := workload.PaperDefaults(1).Signal
	w.sessions = make([]gatewaySession, sz.GatewayInService+sz.GatewaySessions)
	for i := range w.sessions {
		sine.Phase = src.Uniform(0, 2*math.Pi)
		tr, err := signal.NewStatelessSine(sine, src.Uint64())
		if err != nil {
			return err
		}
		w.sessions[i] = gatewaySession{
			sizeKB: units.KB(math.Round(sz.GatewayMeanKB * src.Uniform(0.5, 1.5))),
			rate:   units.KBps(src.Uniform(300, 600)),
			trace:  tr,
		}
	}
	w.cfg = gateway.Config{
		Tau: 0.005, Unit: 1,
		Capacity: units.KBps(float64(sz.GatewayInService) * meanRateKBps / loadFactor),
		Radio:    radio.Paper3G(), RRC: rrc.Paper3G(),
		QueueCap: 64,
	}
	return nil
}

func (w *gatewayChurn) rep(tr *tracer, chk *checker) (*repResult, error) {
	sz := w.o.sz
	res := &repResult{layer: map[string]float64{}}
	names := struct{ region, attach, step, report, deliver, read int32 }{
		tr.name(regionSpan, 1), tr.name("gateway.Attach", 1), tr.name("gateway.Step", 1),
		tr.name("gateway.Endpoint.Report", sampleOneIn), tr.name("gateway.Endpoint.Deliver", sampleOneIn),
		tr.name("gateway.Source.Read", sampleOneIn)}

	t := time.Now()
	baseline := runtime.NumGoroutine()
	gw, err := gateway.New(w.cfg, traceSched(tr, sched.NewDefault()))
	if err != nil {
		return nil, err
	}
	// Both ends of every session are built before the clock starts; the
	// timed region holds only Attach and Step.
	eps := make([]*gateway.LocalEndpoint, len(w.sessions))
	srcs := make([]*gateway.PatternSource, len(w.sessions))
	for i, s := range w.sessions {
		if eps[i], err = gateway.NewLocalEndpoint(s.trace, s.rate, false); err != nil {
			return nil, err
		}
		if srcs[i], err = gateway.NewPatternSource(s.sizeKB); err != nil {
			return nil, err
		}
	}
	next := 0
	attach := func() (gatewayAttached, error) {
		i := next
		next++
		var ep gateway.Endpoint = eps[i]
		var src gateway.Source = srcs[i]
		if tr != nil && i%sampleOneIn == 0 {
			ep = tracedEndpoint{Endpoint: ep, tr: tr, report: names.report, deliver: names.deliver}
			src = tracedSource{Source: src, tr: tr, read: names.read}
		}
		t := tr.now()
		id, err := gw.Attach(ep, src)
		tr.leaf(names.attach, t)
		return gatewayAttached{id: id, ep: eps[i], want: int64(float64(w.sessions[i].sizeKB) * 1000)}, err
	}
	live := make([]gatewayAttached, sz.GatewayInService)
	for i := range live {
		if live[i], err = attach(); err != nil {
			return nil, err
		}
	}
	done := make([]gatewayAttached, 0, sz.GatewaySessions)
	// A session of mean size needs about meanKB/(rate·τ) slots; a run a
	// hundred times longer than the whole schedule has stalled.
	maxSlots := 100 * (sz.GatewaySessions/sz.GatewayInService + 1) * int(sz.GatewayMeanKB/(meanRateKBps*float64(w.cfg.Tau))+1)
	res.slotNS = make([]float64, 0, maxSlots/50)
	res.prep = time.Since(t)

	res.main = beginRegion()
	rs := tr.begin(names.region)
	stepErrs := 0
	for len(done) < sz.GatewaySessions && len(res.slotNS) < maxSlots {
		t := time.Now()
		id := tr.begin(names.step)
		_, err := gw.Step()
		tr.end(id)
		res.slotNS = append(res.slotNS, float64(time.Since(t)))
		if err != nil {
			stepErrs++
		}
		for i := range live {
			a := &live[i]
			a.ep.Advance()
			got := a.ep.ReceivedBytes()
			if got == 0 {
				a.waiting++
			}
			if got < a.want || len(done) == sz.GatewaySessions {
				continue
			}
			done = append(done, *a)
			if *a, err = attach(); err != nil {
				return nil, err
			}
		}
		res.userSlots += float64(len(live))
	}
	tr.end(rs)
	res.main.end()

	chk.ok(stepErrs == 0, "%d of %d Steps returned an error", stepErrs, len(res.slotNS))
	chk.ok(len(done) == sz.GatewaySessions, "%d of %d sessions completed in %d slots", len(done), sz.GatewaySessions, len(res.slotNS))
	for _, a := range done {
		st, err := gw.StatsFor(a.id)
		energy := float64(st.Energy())
		chk.ok(err == nil && a.ep.ReceivedBytes() == a.want && energy > 0 && !math.IsInf(energy, 0) && !math.IsNaN(energy),
			"session %d: received %d of %d bytes, energy %v mJ, %v", a.id, a.ep.ReceivedBytes(), a.want, energy, err)
		res.energyMJ += energy
		// What the viewer waits: the slots before the first byte, which
		// the gateway does not count, and its stalls after, which it does.
		res.rebufferS += float64(a.waiting)*float64(w.cfg.Tau) + float64(st.RebufferSec)
	}
	gw.Close()
	chk.ok(settles(baseline), "%d goroutines after Close, %d before New", runtime.NumGoroutine(), baseline)

	res.slots = float64(len(res.slotNS))
	res.ended = float64(len(done))
	res.users = float64(len(done))
	res.layer["gateway.users_total"] = float64(next)
	tenth := max(len(res.slotNS)/10, 1)
	res.layer["gateway.step_growth_x"] = ratio(median(res.slotNS[len(res.slotNS)-tenth:]), median(res.slotNS[:tenth]))
	if tr != nil {
		if err := w.tcpProbe(res, chk); err != nil {
			return nil, err
		}
		chk.ok(settles(baseline), "%d goroutines after the wire probe, %d before", runtime.NumGoroutine(), baseline)
	}
	return res, nil
}

// settles waits up to a second for the goroutine count to fall back to n.
func settles(n int) bool {
	for i := 0; i < 100 && runtime.NumGoroutine() > n; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	return runtime.NumGoroutine() <= n
}

const tcpProbeTimeout = 30 * time.Second

// tcpProbe measures the wire path the in-memory endpoints skip: one client
// per core fetches GatewayTCPKB over loopback TCP while this goroutine steps
// a gateway of its own back to back.
func (w *gatewayChurn) tcpProbe(res *repResult, chk *checker) error {
	gw, err := gateway.New(w.cfg, sched.NewDefault())
	if err != nil {
		return err
	}
	defer gw.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		// A sandbox without loopback sockets loses the three wire
		// metrics, which then read 0, and nothing else.
		fmt.Fprintln(os.Stderr, "benchmark: wire probe skipped:", err)
		return nil
	}
	var accepting, clients sync.WaitGroup
	accepting.Add(1)
	go func() {
		defer accepting.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if _, err := gateway.AttachConnWith(gw, conn, gateway.ConnOptions{InitialSig: -70, IOTimeout: tcpProbeTimeout}); err != nil {
				conn.Close()
			}
		}
	}()
	conns := runtime.GOMAXPROCS(0)
	type wire struct {
		firstUS float64
		frameUS []float64
		bytes   int64
		err     error
	}
	out := make([]wire, conns)
	finished := make(chan struct{})
	start := time.Now()
	for i := range out {
		clients.Add(1)
		go func(o *wire) {
			defer clients.Done()
			t := time.Now()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				o.err = err
				return
			}
			defer conn.Close()
			// A probe that stalls fails here instead of hanging the run.
			conn.SetDeadline(t.Add(tcpProbeTimeout))
			c, err := gateway.NewClient(conn, units.KB(w.o.sz.GatewayTCPKB), meanRateKBps)
			if err != nil {
				o.err = err
				return
			}
			for last := t; !c.Done(); {
				if _, err := c.ReadFrame(); err != nil {
					o.err = err
					return
				}
				now := time.Now()
				if o.firstUS == 0 {
					o.firstUS = micros(now.Sub(t))
				} else {
					o.frameUS = append(o.frameUS, micros(now.Sub(last)))
				}
				last = now
			}
			o.bytes = c.ReceivedBytes()
		}(&out[i])
	}
	go func() { clients.Wait(); close(finished) }()
	var stepErr error
	for stepping := true; stepping; {
		select {
		case <-finished:
			stepping = false
		default:
			if _, err := gw.Step(); err != nil {
				stepErr = err
			}
			runtime.Gosched()
		}
	}
	elapsed := time.Since(start)
	ln.Close()
	accepting.Wait()
	chk.ok(stepErr == nil, "Step during the wire probe: %v", stepErr)

	var first, frames []float64
	total := int64(0)
	for i, o := range out {
		chk.ok(o.err == nil && o.bytes == int64(w.o.sz.GatewayTCPKB*1000), "tcp client %d: %d bytes, %v", i, o.bytes, o.err)
		first = append(first, o.firstUS)
		frames = append(frames, o.frameUS...)
		total += o.bytes
	}
	res.layer["gateway.tcp.attach_us_p50"] = median(first)
	res.layer["gateway.tcp.frame_us_p50"] = median(frames)
	res.layer["gateway.tcp.mb_per_s"] = float64(total) / 1e6 / elapsed.Seconds()
	return nil
}
