// Command jstream-gateway runs the paper's Fig. 1 framework as a live TCP
// gateway on localhost: simulated mobile clients connect, continuously
// report their RSSI and required bit-rate, and receive scheduled video
// bytes slot by slot. The wire protocol lives in internal/gateway (tcp.go).
//
// Run the demo end to end with the built-in clients:
//
//	jstream-gateway -clients 4 -sched rtma -slot 100ms
//
// Run the chaos scenario (fault injection against the hardened serving
// path) and print the per-fault-class report:
//
//	jstream-gateway -chaos
//
// Run it as a long-lived open-system service — no built-in clients,
// admission control on, drained gracefully on SIGTERM/SIGINT:
//
//	jstream-gateway -serve -max-sessions 64 -headroom 0.8 -http 127.0.0.1:8080
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	ossignal "os/signal"
	"sync"
	"syscall"
	"time"

	"jointstream/internal/gateway"
	"jointstream/internal/radio"
	"jointstream/internal/rng"
	"jointstream/internal/rrc"
	"jointstream/internal/sched"
	"jointstream/internal/signal"
	"jointstream/internal/units"
)

func main() {
	var (
		schedName = flag.String("sched", "rtma", "scheduler: "+sched.Names)
		clients   = flag.Int("clients", 4, "number of simulated clients to spawn")
		videoKB   = flag.Float64("video", 2000, "video size per client (KB)")
		slotDur   = flag.Duration("slot", 100*time.Millisecond, "wall-clock slot length")
		addr      = flag.String("addr", "127.0.0.1:0", "listen address")
		budget    = flag.Float64("budget", 950, "RTMA energy budget (mJ)")
		v         = flag.Float64("v", 0.2, "EMA Lyapunov weight")
		httpAddr  = flag.String("http", "", "serve the monitoring API (healthz/stats/summary/diag) on this address")
		ioTimeout = flag.Duration("iotimeout", 30*time.Second, "per-operation read/write deadline on client connections (0 disables)")
		chaos     = flag.Bool("chaos", false, "run the fault-injection chaos scenario and print the report")
		chaosSeed = flag.Uint64("chaos-seed", 42, "fault plan seed for -chaos")
		serve     = flag.Bool("serve", false, "open-system service mode: no built-in clients, run until SIGTERM then drain")
		maxSess   = flag.Int("max-sessions", 0, "admission control: concurrent session cap (0 disables)")
		headroom  = flag.Float64("headroom", 0, "admission control: demand headroom as a fraction of capacity (0 disables)")
		shedMax   = flag.Int("shed-max", 0, "overload shedding: max sessions shed per slot (0 disables)")
	)
	flag.Parse()
	if *chaos {
		if err := runChaos(*chaosSeed); err != nil {
			fmt.Fprintln(os.Stderr, "jstream-gateway:", err)
			os.Exit(1)
		}
		return
	}
	opts := runOptions{
		schedName: *schedName, clients: *clients, videoKB: *videoKB,
		slotDur: *slotDur, addr: *addr, budget: *budget, v: *v,
		httpAddr: *httpAddr, ioTimeout: *ioTimeout,
		serve: *serve, maxSessions: *maxSess, headroom: *headroom, shedMax: *shedMax,
	}
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "jstream-gateway:", err)
		os.Exit(1)
	}
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

type runOptions struct {
	schedName   string
	clients     int
	videoKB     float64
	slotDur     time.Duration
	addr        string
	budget, v   float64
	httpAddr    string
	ioTimeout   time.Duration
	serve       bool
	maxSessions int
	headroom    float64
	shedMax     int
}

func run(o runOptions) error {
	if !o.serve && o.clients <= 0 {
		return fmt.Errorf("need at least one client")
	}
	s, err := sched.ByName(o.schedName, sched.Params{
		Budget: units.MJ(o.budget), V: o.v, Radio: radio.Paper3G(), RRC: rrc.Paper3G(),
	})
	if err != nil {
		return err
	}
	// Scale the allocation unit with the slot so short slots don't floor
	// per-slot link budgets to zero units: a 200 KB/s link always earns
	// at least one unit per slot.
	unit := units.KB(200 * o.slotDur.Seconds())
	if unit > 25 {
		unit = 25
	}
	gw, err := gateway.New(gateway.Config{
		Tau:               units.Seconds(o.slotDur.Seconds()),
		Unit:              unit,
		Capacity:          20000,
		Radio:             radio.Paper3G(),
		RRC:               rrc.Paper3G(),
		QueueCap:          units.KB(o.videoKB),
		MaxSessions:       o.maxSessions,
		AdmitHeadroomFrac: o.headroom,
		Policy:            gateway.Policy{ShedMaxPerSlot: o.shedMax},
	}, s)
	if err != nil {
		return err
	}
	defer gw.Close()

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Printf("gateway listening on %s, scheduler=%s, slot=%v\n", ln.Addr(), s.Name(), o.slotDur)

	if o.httpAddr != "" {
		mln, err := net.Listen("tcp", o.httpAddr)
		if err != nil {
			return fmt.Errorf("monitoring listener: %w", err)
		}
		defer mln.Close()
		fmt.Printf("monitoring API on http://%s (healthz, stats, summary, diag)\n", mln.Addr())
		go func() {
			server := &http.Server{Handler: gateway.Handler(gw)}
			server.Serve(mln)
		}()
	}

	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if _, err := gateway.AttachConnWith(gw, conn, gateway.ConnOptions{
				InitialSig: -80, IOTimeout: o.ioTimeout,
			}); err != nil {
				fmt.Fprintln(os.Stderr, "attach:", err)
				conn.Close()
			}
		}
	}()

	// SIGTERM/SIGINT begin the graceful drain: admission closes (new
	// handshakes get BUSY draining), sessions already in service keep
	// being served, and the gateway exits when the last one ends.
	sigCh := make(chan os.Signal, 1)
	ossignal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer ossignal.Stop(sigCh)

	type clientResult struct {
		id      int
		bytes   int64
		elapsed time.Duration
		err     error
	}
	clients := o.clients
	if o.serve {
		clients = 0
	}
	done := make(chan clientResult, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			start := time.Now()
			res := clientResult{id: id}
			res.bytes, res.err = runClient(ln.Addr().String(), uint64(id)+1, units.KB(o.videoKB))
			res.elapsed = time.Since(start)
			done <- res
		}(i)
	}

	ticker := time.NewTicker(o.slotDur)
	defer ticker.Stop()
	var deadline <-chan time.Time
	if !o.serve {
		deadline = time.After(5 * time.Minute)
	}
	finished := func() bool {
		if gw.Draining() {
			return gw.Drained()
		}
		// Service mode without a drain request runs forever; the demo
		// exits once its built-in clients are served.
		return !o.serve && gw.AllDone() && gw.Slot() > 0
	}
	for !finished() {
		select {
		case <-ticker.C:
			if _, err := gw.Step(); err != nil {
				return err
			}
		case <-sigCh:
			gw.BeginDrain()
			fmt.Println("drain: admission closed, serving remaining sessions")
		case <-deadline:
			return fmt.Errorf("demo did not complete within 5 minutes")
		}
	}
	ln.Close() // stop accepting before the final report

	wg.Wait()
	close(done)
	for res := range done {
		status := "ok"
		if res.err != nil {
			status = res.err.Error()
		}
		fmt.Printf("client %d: received %d bytes in %v [%s]\n",
			res.id, res.bytes, res.elapsed.Round(time.Millisecond), status)
	}
	for i := 0; i < clients; i++ {
		if st, err := gw.StatsFor(i); err == nil {
			fmt.Printf("user %d: sent=%v energy=%v (tail %v)\n", i, st.SentKB, st.Energy(), st.TailEnergy)
		}
	}
	d := gw.Diagnostics()
	fmt.Printf("gateway: %d slots, admitted=%d rejected=%d shed=%d drained=%d, tick p50=%.2fms p99=%.2fms\n",
		gw.Slot(), d.Admitted, d.Rejected, d.Shed, d.Drained,
		gw.TickQuantileMs(0.50), gw.TickQuantileMs(0.99))
	return nil
}

// runClient connects, reports a drifting random-walk signal, and reads
// its whole video.
func runClient(addr string, seed uint64, videoKB units.KB) (int64, error) {
	c, err := gateway.DialClient(addr, videoKB, 400)
	if err != nil {
		return 0, err
	}
	defer c.Close()

	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tr, err := signal.NewRandomWalk(signal.RandomWalkConfig{
			Bounds: signal.DefaultBounds, Start: -70, StepStd: 4,
		}, rng.New(seed))
		if err != nil {
			return
		}
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			case <-time.After(300 * time.Millisecond):
				if err := c.ReportSignal(tr.At(n)); err != nil {
					return
				}
			}
		}
	}()

	for !c.Done() {
		if _, err := c.ReadFrame(); err != nil {
			if err == io.EOF && c.Done() {
				break
			}
			return c.ReceivedBytes(), err
		}
	}
	return c.ReceivedBytes(), nil
}
