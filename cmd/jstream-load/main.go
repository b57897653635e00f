// Command jstream-load drives churn against a jstream-gateway: a Poisson
// stream of short-lived TCP streaming sessions with a configurable
// concurrency ceiling and fault mix (mid-stream drops, stalled readers,
// signal flappers). It reports the client-side session ledger —
// completed / refused-at-admission / dropped / failed — and, in spawn
// mode, the gateway's own diagnostics: admission, shed and drain
// counters, tick-duration p50/p99, and leaked goroutines.
//
// Against a running gateway:
//
//	jstream-load -addr 127.0.0.1:5600 -clients 100000 -concurrency 2000
//
// Self-contained (spawns an in-process gateway, drains it at the end,
// verifies nothing leaked) — the CI smoke configuration:
//
//	jstream-load -spawn -clients 1000 -concurrency 200 -max-sessions 64 -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"jointstream/internal/gateway"
	"jointstream/internal/radio"
	"jointstream/internal/rng"
	"jointstream/internal/rrc"
	"jointstream/internal/sched"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

type options struct {
	addr        string
	clients     int
	concurrency int
	arrival     time.Duration
	videoKB     float64
	videoSpread float64
	rate        float64
	faultDrop   float64
	faultStall  float64
	faultFlap   float64
	stallDur    time.Duration
	trace       string
	seed        uint64
	timeout     time.Duration
	jsonOut     bool
	verbose     bool
	maxTickP99  float64

	spawn        bool
	slotDur      time.Duration
	maxSessions  int
	headroom     float64
	shedMax      int
	slotDeadline time.Duration
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "", "gateway address (required unless -spawn)")
	flag.IntVar(&o.clients, "clients", 1000, "total sessions to run")
	flag.IntVar(&o.concurrency, "concurrency", 256, "max concurrent sessions")
	flag.DurationVar(&o.arrival, "arrival", 2*time.Millisecond, "mean session interarrival time (Poisson)")
	flag.Float64Var(&o.videoKB, "video", 300, "mean video size per session (KB)")
	flag.Float64Var(&o.videoSpread, "video-spread", 0.5, "video size spread as a fraction of the mean")
	flag.Float64Var(&o.rate, "rate", 400, "required playback rate (KB/s)")
	flag.Float64Var(&o.faultDrop, "fault-drop", 0.05, "fraction of sessions that hang up mid-stream")
	flag.Float64Var(&o.faultStall, "fault-stall", 0.05, "fraction of sessions that stop reading for -stall")
	flag.Float64Var(&o.faultFlap, "fault-flap", 0.05, "fraction of sessions that flap their reported signal")
	flag.DurationVar(&o.stallDur, "stall", 200*time.Millisecond, "stall length for fault-stall sessions")
	flag.StringVar(&o.trace, "trace", "", "CSV arrival trace (timestamp,rate,duration rows, seconds); replaces Poisson pacing, -clients caps the session count")
	flag.Uint64Var(&o.seed, "seed", 1, "load plan seed")
	flag.DurationVar(&o.timeout, "timeout", 5*time.Minute, "overall run deadline")
	flag.BoolVar(&o.jsonOut, "json", false, "print the report as JSON")
	flag.BoolVar(&o.verbose, "v", false, "log each failed session's error")
	flag.Float64Var(&o.maxTickP99, "max-tick-p99", 0, "fail if gateway tick p99 exceeds this many ms (spawn mode; 0 disables)")
	flag.BoolVar(&o.spawn, "spawn", false, "spawn an in-process gateway and drive it (self-test / CI mode)")
	flag.DurationVar(&o.slotDur, "slot", 5*time.Millisecond, "spawned gateway slot length")
	flag.IntVar(&o.maxSessions, "max-sessions", 0, "spawned gateway session cap (0 disables)")
	flag.Float64Var(&o.headroom, "headroom", 0, "spawned gateway admission headroom fraction (0 disables)")
	flag.IntVar(&o.shedMax, "shed-max", 1, "spawned gateway shed budget per slot (0 disables)")
	flag.DurationVar(&o.slotDeadline, "slot-deadline", 20*time.Millisecond, "spawned gateway async delivery deadline")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "jstream-load:", err)
		os.Exit(1)
	}
}

// report is the run's final ledger, JSON-shaped for CI gating.
type report struct {
	Sessions  int     `json:"sessions"`
	Completed int64   `json:"completed"`
	Busy      int64   `json:"busy"`
	Dropped   int64   `json:"dropped"`
	Failed    int64   `json:"failed"`
	Bytes     int64   `json:"bytes"`
	ElapsedMs float64 `json:"elapsed_ms"`

	// Spawn-mode gateway-side observations.
	Slots            int     `json:"slots,omitempty"`
	Admitted         int     `json:"admitted,omitempty"`
	Rejected         int     `json:"rejected,omitempty"`
	Shed             int     `json:"shed,omitempty"`
	Drained          int     `json:"drained,omitempty"`
	TickP50Ms        float64 `json:"tick_p50_ms,omitempty"`
	TickP99Ms        float64 `json:"tick_p99_ms,omitempty"`
	LeakedGoroutines int     `json:"leaked_goroutines"`
}

func run(o options) error {
	if o.clients <= 0 || o.concurrency <= 0 {
		return fmt.Errorf("need positive -clients and -concurrency")
	}
	if !o.spawn && o.addr == "" {
		return fmt.Errorf("need -addr (or -spawn)")
	}

	schedule, err := loadTrace(o)
	if err != nil {
		return err
	}

	baseGoroutines := runtime.NumGoroutine()
	var gw *gateway.Gateway
	var ln net.Listener
	var stopStepping func()
	addr := o.addr
	if o.spawn {
		var err error
		gw, ln, stopStepping, err = spawnGateway(o)
		if err != nil {
			return err
		}
		defer ln.Close()
		addr = ln.Addr().String()
	}

	rep := driveClients(o, addr, schedule)

	if o.spawn {
		// Graceful drain: accepting stops, admission closes, in-service
		// sessions finish, the stepper exits once the gateway reports
		// Drained. The listener must die before the leak check — its
		// accept loop is a goroutine of ours.
		ln.Close()
		gw.BeginDrain()
		drainDeadline := time.Now().Add(30 * time.Second)
		for !gw.Drained() && time.Now().Before(drainDeadline) {
			time.Sleep(o.slotDur)
		}
		stopStepping()
		gw.Close()
		// Workers unwind asynchronously; give them a bounded window.
		leakDeadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > baseGoroutines && time.Now().Before(leakDeadline) {
			runtime.GC()
			time.Sleep(10 * time.Millisecond)
		}
		rep.LeakedGoroutines = runtime.NumGoroutine() - baseGoroutines
		if rep.LeakedGoroutines < 0 {
			rep.LeakedGoroutines = 0
		}
		d := gw.Diagnostics()
		if o.verbose {
			fmt.Fprintf(os.Stderr, "diag: %+v\n", d)
		}
		rep.Slots = gw.Slot()
		rep.Admitted, rep.Rejected, rep.Shed, rep.Drained = d.Admitted, d.Rejected, d.Shed, d.Drained
		rep.TickP50Ms = gw.TickQuantileMs(0.50)
		rep.TickP99Ms = gw.TickQuantileMs(0.99)
	}

	if o.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		fmt.Printf("sessions=%d completed=%d busy=%d dropped=%d failed=%d bytes=%d elapsed=%.0fms\n",
			rep.Sessions, rep.Completed, rep.Busy, rep.Dropped, rep.Failed, rep.Bytes, rep.ElapsedMs)
		if o.spawn {
			fmt.Printf("gateway: slots=%d admitted=%d rejected=%d shed=%d drained=%d tick p50=%.2fms p99=%.2fms leaked=%d\n",
				rep.Slots, rep.Admitted, rep.Rejected, rep.Shed, rep.Drained,
				rep.TickP50Ms, rep.TickP99Ms, rep.LeakedGoroutines)
		}
	}

	if rep.Failed > 0 {
		return fmt.Errorf("%d sessions failed unexpectedly", rep.Failed)
	}
	if o.spawn && rep.LeakedGoroutines > 0 {
		return fmt.Errorf("%d goroutines leaked", rep.LeakedGoroutines)
	}
	if o.maxTickP99 > 0 && rep.TickP99Ms > o.maxTickP99 {
		return fmt.Errorf("tick p99 %.2fms exceeds budget %.2fms", rep.TickP99Ms, o.maxTickP99)
	}
	return nil
}

// spawnGateway builds the in-process gateway, its accept loop and its
// wall-clock stepper.
func spawnGateway(o options) (*gateway.Gateway, net.Listener, func(), error) {
	// The allocation unit must fit the slot: with short wall-clock slots a
	// coarse unit floors per-slot link budgets to zero units and starves
	// weak-signal users. Size it so even a 200 KB/s link earns one unit
	// per slot.
	const capacity = 50000
	unit := units.KB(200 * o.slotDur.Seconds())
	gw, err := gateway.New(gateway.Config{
		Tau:               units.Seconds(o.slotDur.Seconds()),
		Unit:              unit,
		Capacity:          capacity,
		Radio:             radio.Paper3G(),
		RRC:               rrc.Paper3G(),
		QueueCap:          units.KB(o.videoKB * (1 + o.videoSpread) * 2),
		MaxSessions:       o.maxSessions,
		AdmitHeadroomFrac: o.headroom,
		Policy: gateway.Policy{
			AsyncDelivery:  true,
			SlotDeadline:   o.slotDeadline,
			ShedMaxPerSlot: o.shedMax,
		},
	}, sched.NewDefault())
	if err != nil {
		return nil, nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, nil, err
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if _, err := gateway.AttachConnWith(gw, conn, gateway.ConnOptions{
				InitialSig: -70, IOTimeout: 30 * time.Second,
			}); err != nil {
				conn.Close()
			}
		}
	}()
	stop := make(chan struct{})
	var stepWG sync.WaitGroup
	stepWG.Add(1)
	go func() {
		defer stepWG.Done()
		ticker := time.NewTicker(o.slotDur)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				gw.Step()
			}
		}
	}()
	return gw, ln, func() { close(stop); stepWG.Wait() }, nil
}

// fault classes drawn per session.
const (
	faultNone = iota
	faultDrop
	faultStall
	faultFlap
)

// loadTrace expands -trace into absolute wall-clock arrival offsets
// (millisecond resolution), or returns nil when Poisson pacing applies.
func loadTrace(o options) ([]time.Duration, error) {
	if o.trace == "" {
		return nil, nil
	}
	f, err := os.Open(o.trace)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	slots, err := workload.ParseArrivalTrace(f, units.Seconds(0.001))
	if err != nil {
		return nil, err
	}
	schedule := make([]time.Duration, len(slots))
	for i, s := range slots {
		schedule[i] = time.Duration(s) * time.Millisecond
	}
	return schedule, nil
}

// driveClients paces the arrival process — the recorded trace schedule
// when one was given, Poisson otherwise — and fans sessions out under
// the concurrency ceiling.
func driveClients(o options, addr string, schedule []time.Duration) *report {
	n := o.clients
	if schedule != nil && len(schedule) < n {
		n = len(schedule)
	}
	rep := &report{Sessions: n}
	start := time.Now()
	deadline := start.Add(o.timeout)
	sem := make(chan struct{}, o.concurrency)
	var wg sync.WaitGroup
	arrSrc := rng.New(o.seed)
	for i := 0; i < n; i++ {
		if schedule != nil {
			// Replay the recorded arrival time; a full semaphore still
			// converts trace bursts into instantaneous concurrency.
			if wait := schedule[i] - time.Since(start); wait > 0 {
				time.Sleep(wait)
			}
		} else {
			// Poisson pacing; a full semaphore converts arrival pressure
			// into instantaneous concurrency, which is the point.
			gap := time.Duration(arrSrc.Exp(1.0 / max(float64(o.arrival), 1)))
			time.Sleep(gap)
		}
		if time.Now().After(deadline) {
			rep.Sessions = i
			break
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer func() { <-sem }()
			runSession(o, addr, uint64(id), rep)
		}(i)
	}
	wg.Wait()
	rep.ElapsedMs = float64(time.Since(start)) / float64(time.Millisecond)
	return rep
}

func max(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// runSession executes one client session with its drawn fault behavior
// and files the outcome.
func runSession(o options, addr string, id uint64, rep *report) {
	src := rng.New(rng.Hash3(o.seed, id, 0x10ad))
	size := o.videoKB * (1 + o.videoSpread*(2*src.Float64()-1))
	if size < 1 {
		size = 1
	}
	fault := faultNone
	switch p := src.Float64(); {
	case p < o.faultDrop:
		fault = faultDrop
	case p < o.faultDrop+o.faultStall:
		fault = faultStall
	case p < o.faultDrop+o.faultStall+o.faultFlap:
		fault = faultFlap
	}

	c, err := gateway.DialClient(addr, units.KB(size), units.KBps(o.rate))
	if err != nil {
		atomic.AddInt64(&rep.Failed, 1)
		return
	}
	defer c.Close()

	want := int64(size * 1000)
	dropAt := int64(-1)
	if fault == faultDrop {
		dropAt = int64(src.Uniform(0.2, 0.8) * float64(want))
	}
	stalled := false
	lastSig := time.Now()
	flapHigh := false
	for !c.Done() {
		if _, err := c.ReadFrame(); err != nil {
			switch {
			case err == gateway.ErrBusy:
				atomic.AddInt64(&rep.Busy, 1)
			case err == io.EOF && c.Done():
			case fault != faultNone:
				// A faulted session ending early was detached by the
				// gateway's policy — expected, file it under its fault.
				atomic.AddInt64(&rep.Dropped, 1)
			default:
				atomic.AddInt64(&rep.Failed, 1)
				if o.verbose {
					fmt.Fprintf(os.Stderr, "session %d: %v after %d bytes\n", id, err, c.ReceivedBytes())
				}
			}
			atomic.AddInt64(&rep.Bytes, c.ReceivedBytes())
			return
		}
		if dropAt >= 0 && c.ReceivedBytes() >= dropAt {
			atomic.AddInt64(&rep.Dropped, 1)
			atomic.AddInt64(&rep.Bytes, c.ReceivedBytes())
			return
		}
		if fault == faultStall && !stalled && c.ReceivedBytes() > want/4 {
			stalled = true
			time.Sleep(o.stallDur)
		}
		switch {
		case fault == faultFlap:
			flapHigh = !flapHigh
			sig := units.DBm(-110)
			if flapHigh {
				sig = -50
			}
			c.ReportSignal(sig)
		case time.Since(lastSig) > 200*time.Millisecond:
			lastSig = time.Now()
			c.ReportSignal(units.DBm(-60 - 20*src.Float64()))
		}
	}
	atomic.AddInt64(&rep.Completed, 1)
	atomic.AddInt64(&rep.Bytes, c.ReceivedBytes())
}
