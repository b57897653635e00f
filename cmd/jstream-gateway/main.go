// Command jstream-gateway runs the paper's Fig. 1 framework as a live TCP
// gateway on localhost: clients connect, report their RSSI and required
// bit-rate, and receive scheduled video bytes slot by slot. The wire
// protocol lives in internal/gateway (tcp.go).
//
// By default it starts the gateway in process and drives -clients
// sessions against it: Poisson arrivals (or a recorded -trace) under a
// -concurrency ceiling, with an optional fault mix (mid-stream drops,
// stalled readers, signal flappers). It then drains the gateway, counts
// leaked goroutines and prints the client-side ledger — completed /
// refused at admission / dropped / failed — beside the gateway's
// admission, shed and drain counters and its tick p50/p99. It exits
// non-zero on an unexpected session failure, a leaked goroutine or a tick
// p99 over -max-tick-p99:
//
//	jstream-gateway -clients 4 -sched rtma -slot 100ms
//	jstream-gateway -clients 1000 -concurrency 200 -max-sessions 64 -shed-max 2 \
//	    -fault-drop 0.05 -fault-stall 0.05 -fault-flap 0.05 -json
//
// The same sessions against a gateway running elsewhere:
//
//	jstream-gateway -connect 127.0.0.1:5600 -clients 100000 -concurrency 2000
//
// A long-lived open-system service with no sessions of its own, drained
// gracefully on SIGTERM/SIGINT:
//
//	jstream-gateway -serve -addr 127.0.0.1:5600 -max-sessions 64 -headroom 0.8 -http 127.0.0.1:8080
//
// The chaos scenario (fault injection against the hardened serving path)
// and its per-fault-class report:
//
//	jstream-gateway -chaos
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	ossignal "os/signal"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
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
	// The in-process gateway.
	sched        string
	budget, v    float64
	slot         time.Duration
	capacity     float64
	addr, http   string
	ioTimeout    time.Duration
	slotDeadline time.Duration
	maxSessions  int
	headroom     float64
	shedMax      int
	serve, chaos bool

	// The sessions.
	connect                          string
	clients, concurrency             int
	arrival                          time.Duration
	trace                            string
	video, videoSpread, rate         float64
	faultDrop, faultStall, faultFlap float64
	stall                            time.Duration
	seed                             uint64
	timeout                          time.Duration
	json, verbose                    bool
	maxTickP99                       float64
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err == flag.ErrHelp {
		return
	}
	if err != nil {
		os.Exit(2)
	}
	if o.chaos {
		err = runChaos(o.seed)
	} else {
		_, err = run(o, os.Stdout, os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "jstream-gateway:", err)
		os.Exit(1)
	}
}

// parseFlags reads the command line; a bad flag has printed its error
// and the usage when it returns one.
func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("jstream-gateway", flag.ContinueOnError)
	fs.StringVar(&o.sched, "sched", "rtma", "scheduler: "+sched.Names)
	fs.Float64Var(&o.budget, "budget", 950, "RTMA energy budget (mJ)")
	fs.Float64Var(&o.v, "v", 0.2, "EMA Lyapunov weight")
	fs.DurationVar(&o.slot, "slot", 100*time.Millisecond, "wall-clock slot length")
	fs.Float64Var(&o.capacity, "capacity", 20000, "base-station capacity (KB/s)")
	fs.StringVar(&o.addr, "addr", "127.0.0.1:0", "listen address")
	fs.StringVar(&o.http, "http", "", "serve the monitoring API (healthz/stats/summary/diag) on this address")
	fs.DurationVar(&o.ioTimeout, "iotimeout", 30*time.Second, "per-operation read/write deadline on client connections (0 disables)")
	fs.DurationVar(&o.slotDeadline, "slot-deadline", 20*time.Millisecond, "how long a slot waits for its deliveries")
	fs.IntVar(&o.maxSessions, "max-sessions", 0, "admission control: concurrent session cap (0 disables)")
	fs.Float64Var(&o.headroom, "headroom", 0, "admission control: demand headroom as a fraction of capacity (0 disables)")
	fs.IntVar(&o.shedMax, "shed-max", 0, "overload shedding: max sessions shed per slot (0 disables)")
	fs.BoolVar(&o.serve, "serve", false, "open-system service mode: no sessions of its own, run until SIGTERM then drain")
	fs.BoolVar(&o.chaos, "chaos", false, "run the fault-injection chaos scenario and print the report")
	fs.StringVar(&o.connect, "connect", "", "drive the sessions against the gateway at this address; no local server")
	fs.IntVar(&o.clients, "clients", 4, "total sessions to run")
	fs.IntVar(&o.concurrency, "concurrency", 256, "max concurrent sessions")
	fs.DurationVar(&o.arrival, "arrival", 2*time.Millisecond, "mean session interarrival time (Poisson)")
	fs.StringVar(&o.trace, "trace", "", "CSV arrival trace (timestamp,rate,duration rows, seconds); replaces Poisson pacing, -clients caps the session count")
	fs.Float64Var(&o.video, "video", 2000, "mean video size per session (KB)")
	fs.Float64Var(&o.videoSpread, "video-spread", 0.5, "video size spread as a fraction of the mean")
	fs.Float64Var(&o.rate, "rate", 400, "required playback rate (KB/s)")
	fs.Float64Var(&o.faultDrop, "fault-drop", 0, "fraction of sessions that hang up mid-stream")
	fs.Float64Var(&o.faultStall, "fault-stall", 0, "fraction of sessions that stop reading for -stall")
	fs.Float64Var(&o.faultFlap, "fault-flap", 0, "fraction of sessions that flap their reported signal")
	fs.DurationVar(&o.stall, "stall", 200*time.Millisecond, "stall length for fault-stall sessions")
	fs.Uint64Var(&o.seed, "seed", 42, "seed of the session plan, and of the fault plans under -chaos")
	fs.DurationVar(&o.timeout, "timeout", 5*time.Minute, "start no session after this long")
	fs.BoolVar(&o.json, "json", false, "print the report as JSON")
	fs.BoolVar(&o.verbose, "verbose", false, "log each failed session's and refused handshake's error")
	fs.Float64Var(&o.maxTickP99, "max-tick-p99", 0, "fail if the in-process gateway's tick p99 exceeds this many ms (0 disables)")
	err := fs.Parse(args)
	return o, err
}

// validate refuses the combinations no mode runs.
func (o options) validate() error {
	switch {
	case o.serve && o.connect != "":
		return errors.New("-serve runs a gateway, -connect drives one elsewhere: pick one")
	case !o.serve && (o.clients <= 0 || o.concurrency <= 0):
		return errors.New("need positive -clients and -concurrency (or -serve)")
	}
	for _, f := range []struct {
		name string
		frac float64
	}{{"-fault-drop", o.faultDrop}, {"-fault-stall", o.faultStall}, {"-fault-flap", o.faultFlap}} {
		if !(f.frac >= 0 && f.frac <= 1) {
			return fmt.Errorf("%s %v is not a fraction in [0, 1]", f.name, f.frac)
		}
	}
	if sum := o.faultDrop + o.faultStall + o.faultFlap; sum > 1 {
		return fmt.Errorf("fault fractions sum to %v, above 1", sum)
	}
	return nil
}

// runChaos executes the chaos scenario and prints its table.
func runChaos(seed uint64) error {
	opts := defaultChaosOptions()
	opts.Seed = seed
	rep, err := runChaosScenario(opts)
	if err != nil {
		return err
	}
	fmt.Print(rep.Render())
	return nil
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

	// The in-process gateway's observations.
	Slots            int     `json:"slots,omitempty"`
	Admitted         int     `json:"admitted,omitempty"`
	Rejected         int     `json:"rejected,omitempty"`
	Shed             int     `json:"shed,omitempty"`
	Drained          int     `json:"drained,omitempty"`
	TickP50Ms        float64 `json:"tick_p50_ms,omitempty"`
	TickP99Ms        float64 `json:"tick_p99_ms,omitempty"`
	LeakedGoroutines int     `json:"leaked_goroutines"`
}

// run serves, drives, or both, prints the report to stdout and returns
// it, with an error for a refused option, a failed session, a leak or a
// tick p99 over budget.
func run(o options, stdout, stderr io.Writer) (*report, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	schedule, err := loadTrace(o.trace)
	if err != nil {
		return nil, err
	}
	var sigCh chan os.Signal
	if o.serve {
		sigCh = make(chan os.Signal, 1)
		ossignal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
		defer ossignal.Stop(sigCh)
	}
	base := runtime.NumGoroutine()
	rep := &report{}
	var drainErr error
	if o.connect != "" {
		rep = drive(o, o.connect, schedule, stderr)
	} else {
		srv, err := startServer(o, stderr)
		if err != nil {
			return nil, err
		}
		if o.serve {
			<-sigCh
			fmt.Fprintln(stderr, "drain: admission closed, serving remaining sessions")
		} else {
			rep = drive(o, srv.ln.Addr().String(), schedule, stderr)
		}
		drainErr = srv.drain(o)
		rep.LeakedGoroutines = leakedSince(base)
		d := srv.gw.Diagnostics()
		if o.verbose {
			fmt.Fprintf(stderr, "diag: %+v\n", d)
		}
		rep.Slots = srv.gw.Slot()
		rep.Admitted, rep.Rejected, rep.Shed, rep.Drained = d.Admitted, d.Rejected, d.Shed, d.Drained
		rep.TickP50Ms = srv.gw.TickQuantileMs(0.50)
		rep.TickP99Ms = srv.gw.TickQuantileMs(0.99)
	}

	if o.json {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return rep, err
		}
	} else {
		if !o.serve {
			fmt.Fprintf(stdout, "sessions=%d completed=%d busy=%d dropped=%d failed=%d bytes=%d elapsed=%.0fms\n",
				rep.Sessions, rep.Completed, rep.Busy, rep.Dropped, rep.Failed, rep.Bytes, rep.ElapsedMs)
		}
		if o.connect == "" {
			fmt.Fprintf(stdout, "gateway: slots=%d admitted=%d rejected=%d shed=%d drained=%d tick p50=%.2fms p99=%.2fms leaked=%d\n",
				rep.Slots, rep.Admitted, rep.Rejected, rep.Shed, rep.Drained,
				rep.TickP50Ms, rep.TickP99Ms, rep.LeakedGoroutines)
		}
	}

	switch {
	case drainErr != nil:
		return rep, drainErr
	case rep.Failed > 0:
		return rep, fmt.Errorf("%d sessions failed unexpectedly", rep.Failed)
	case rep.LeakedGoroutines > 0:
		return rep, fmt.Errorf("%d goroutines leaked", rep.LeakedGoroutines)
	case o.maxTickP99 > 0 && rep.TickP99Ms > o.maxTickP99:
		return rep, fmt.Errorf("tick p99 %.2fms exceeds budget %.2fms", rep.TickP99Ms, o.maxTickP99)
	}
	return rep, nil
}

// server is the in-process gateway: its TCP accept loop, its wall-clock
// stepper and, with -http, its monitoring API.
type server struct {
	gw     *gateway.Gateway
	ln     net.Listener
	web    *http.Server
	ctx    context.Context // cancelled by close
	cancel context.CancelFunc
	wg     sync.WaitGroup // the stepper, the accept loop and its handshakes
}

// startServer builds the gateway, listens on -addr (and -http) and starts
// stepping it every -slot.
func startServer(o options, stderr io.Writer) (*server, error) {
	s, err := sched.ByName(o.sched, sched.Params{
		Budget: units.MJ(o.budget), V: o.v, Radio: radio.Paper3G(), RRC: rrc.Paper3G(),
	})
	if err != nil {
		return nil, err
	}
	// Scale the allocation unit with the slot so short slots don't floor
	// per-slot link budgets to zero units: a 200 KB/s link always earns
	// at least one unit per slot.
	unit := min(units.KB(200*o.slot.Seconds()), 25)
	// Delivery is asynchronous: a stalled reader costs its own session a
	// missed slot, not every session's tick an -iotimeout.
	gw, err := gateway.New(gateway.Config{
		Tau:               units.Seconds(o.slot.Seconds()),
		Unit:              unit,
		Capacity:          units.KBps(o.capacity),
		Radio:             radio.Paper3G(),
		RRC:               rrc.Paper3G(),
		QueueCap:          units.KB(o.video * (1 + o.videoSpread) * 2),
		MaxSessions:       o.maxSessions,
		AdmitHeadroomFrac: o.headroom,
		Policy: gateway.Policy{
			AsyncDelivery:  true,
			SlotDeadline:   o.slotDeadline,
			ShedMaxPerSlot: o.shedMax,
		},
	}, s)
	if err != nil {
		return nil, err
	}
	srv := &server{gw: gw}
	srv.ctx, srv.cancel = context.WithCancel(context.Background())
	if srv.ln, err = net.Listen("tcp", o.addr); err != nil {
		srv.close()
		return nil, err
	}
	fmt.Fprintf(stderr, "gateway listening on %s, scheduler=%s, slot=%v\n", srv.ln.Addr(), s.Name(), o.slot)
	if o.http != "" {
		mln, err := net.Listen("tcp", o.http)
		if err != nil {
			srv.close()
			return nil, fmt.Errorf("monitoring listener: %w", err)
		}
		fmt.Fprintf(stderr, "monitoring API on http://%s (healthz, stats, summary, diag)\n", mln.Addr())
		srv.web = &http.Server{Handler: gateway.Handler(gw)}
		go srv.web.Serve(mln)
	}

	// Each handshake runs on its own goroutine, so an idle client costs only
	// its own -iotimeout, and close cuts it short by closing its connection.
	// -max-sessions, when set, bounds the handshakes in flight (a channel of
	// empty structs buffers any count without memory).
	slots := make(chan struct{}, cmp.Or(o.maxSessions, math.MaxInt32))
	srv.wg.Add(1)
	go func() {
		defer srv.wg.Done()
		for {
			conn, err := srv.ln.Accept()
			if err != nil {
				return
			}
			slots <- struct{}{} // close frees the slots: it ends every handshake
			srv.wg.Add(1)
			go func() {
				defer srv.wg.Done()
				unwatch := context.AfterFunc(srv.ctx, func() { conn.Close() })
				_, err := gateway.AttachConnWith(gw, conn, gateway.ConnOptions{InitialSig: -70, IOTimeout: o.ioTimeout})
				unwatch()
				<-slots
				if err != nil {
					if o.verbose {
						fmt.Fprintln(stderr, "attach:", err)
					}
					conn.Close()
				}
			}()
		}
	}()
	srv.wg.Add(1)
	go func() {
		defer srv.wg.Done()
		ticker := time.NewTicker(o.slot)
		defer ticker.Stop()
		for {
			select {
			case <-srv.ctx.Done():
				return
			case <-ticker.C:
				gw.Step() // fails only after Close, which waits for this loop
			}
		}
	}()
	return srv, nil
}

// drainTimeout bounds the drain after driven sessions; a drain under
// -serve waits for the last session however long it takes.
const drainTimeout = 30 * time.Second

// drain closes admission — new handshakes get BUSY draining — serves the
// sessions still in service to their end, then stops the stepper, the
// listeners and the gateway.
func (s *server) drain(o options) error {
	defer s.close()
	s.gw.BeginDrain()
	deadline := time.Now().Add(drainTimeout)
	for !s.gw.Drained() {
		if !o.serve && time.Now().After(deadline) {
			return fmt.Errorf("gateway did not drain within %v", drainTimeout)
		}
		time.Sleep(o.slot)
	}
	return nil
}

// close releases what startServer built: the accept loop and the HTTP
// server exit with their listeners, the handshakes in flight with their
// connections, and it waits for the loops and handshakes before closing
// the gateway.
func (s *server) close() {
	if s.ln != nil {
		s.ln.Close()
	}
	if s.web != nil {
		s.web.Close()
	}
	s.cancel()
	s.wg.Wait()
	s.gw.Close()
}

// leakedSince counts the goroutines beyond base that are still running
// after a bounded wait for workers to unwind.
func leakedSince(base int) int {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	return max(runtime.NumGoroutine()-base, 0)
}

// fault classes drawn per session.
const (
	faultNone = iota
	faultDrop
	faultStall
	faultFlap
)

// loadTrace expands a -trace file into absolute wall-clock arrival offsets
// (millisecond resolution), or returns nil when Poisson pacing applies.
func loadTrace(path string) ([]time.Duration, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Open(path)
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

// drive paces the arrival process — the recorded trace schedule when one
// was given, Poisson otherwise — and fans sessions out under the
// concurrency ceiling.
func drive(o options, addr string, schedule []time.Duration, stderr io.Writer) *report {
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
			runSession(o, addr, uint64(id), rep, stderr)
		}(i)
	}
	wg.Wait()
	rep.ElapsedMs = float64(time.Since(start)) / float64(time.Millisecond)
	return rep
}

// runSession executes one client session with its drawn fault behavior
// and files the outcome.
func runSession(o options, addr string, id uint64, rep *report, stderr io.Writer) {
	src := rng.New(rng.Hash3(o.seed, id, 0x10ad))
	size := o.video * (1 + o.videoSpread*(2*src.Float64()-1))
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
					fmt.Fprintf(stderr, "session %d: %v after %d bytes\n", id, err, c.ReceivedBytes())
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
			time.Sleep(o.stall)
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
