package gateway

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"jointstream/internal/cell"
	"jointstream/internal/sched"
	"jointstream/internal/signal"
	"jointstream/internal/units"
)

// TestAdmissionMatchesOpenSim: the gateway admits by the open engine's
// rule, cell.Admission. The same session cap, headroom, in-service rates
// and newcomer rate give both the same decision and the same refusal.
func TestAdmissionMatchesOpenSim(t *testing.T) {
	const capacity = 5000
	for _, c := range []struct {
		name    string
		cap     int
		frac    float64
		rates   []units.KBps // in service
		rate    units.KBps   // the newcomer's
		refused bool
	}{
		{"no limits", 0, 0, []units.KBps{400, 400}, 400, false},
		{"under the cap", 3, 0, []units.KBps{400, 400}, 400, false},
		{"at the cap", 2, 0, []units.KBps{400, 400}, 400, true},
		{"headroom just met", 0, 0.2, []units.KBps{350, 400}, 250, false},
		{"over headroom", 0, 0.2, []units.KBps{350, 400}, 251, true},
		{"cap before headroom", 1, 0.1, []units.KBps{400}, 400, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Capacity = capacity
			cfg.MaxSessions, cfg.AdmitHeadroomFrac = c.cap, c.frac
			g, err := New(cfg, sched.NewDefault())
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range c.rates {
				attachUser(t, g, 50000, r, -60)
			}
			if _, err := g.Step(); err != nil { // puts every report on record
				t.Fatal(err)
			}
			ep, err := NewLocalEndpoint(signal.Constant(-60, signal.DefaultBounds), c.rate, false)
			if err != nil {
				t.Fatal(err)
			}
			src, _ := NewPatternSource(500)
			_, gwErr := g.Attach(ep, src)

			var demand units.KBps
			for _, r := range c.rates {
				demand += r
			}
			openErr := cell.NewAdmission(c.cap, c.frac, capacity).Check(len(c.rates), demand, c.rate)

			if (gwErr != nil) != c.refused || (openErr != nil) != c.refused {
				t.Fatalf("gateway: %v, open engine: %v; want refused=%v", gwErr, openErr, c.refused)
			}
			if !c.refused {
				return
			}
			var gwOC, openOC *cell.OverCapacityError
			if !errors.As(gwErr, &gwOC) || !errors.As(openErr, &openOC) || *gwOC != *openOC {
				t.Fatalf("refusals differ: gateway %#v, open engine %#v", gwErr, openErr)
			}
		})
	}
}

// TestAdmissionSessionCap: the concurrent-session cap rejects the
// (cap+1)-th attachment with a typed error, and frees a slot when a
// session leaves service.
func TestAdmissionSessionCap(t *testing.T) {
	cfg := testConfig()
	cfg.MaxSessions = 2
	g, err := New(cfg, sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	attachUser(t, g, 500, 400, -60)
	ep2, _ := attachUser(t, g, 500, 400, -60)
	ep3, err := NewLocalEndpoint(signal.Constant(-60, signal.DefaultBounds), 400, false)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := NewPatternSource(500)
	if _, err := g.Attach(ep3, src); !errors.Is(err, cell.ErrOverCapacity) {
		t.Fatalf("over-cap attach: got %v, want ErrOverCapacity", err)
	}
	var oce *cell.OverCapacityError
	_, err = g.Attach(ep3, src)
	if !errors.As(err, &oce) || oce.Reason != "session-cap" || oce.InService != 2 || oce.MaxSessions != 2 {
		t.Fatalf("typed rejection: got %v (%+v)", err, oce)
	}
	d := g.Diagnostics()
	if d.Admitted != 2 || d.Rejected != 2 {
		t.Fatalf("diag admitted=%d rejected=%d, want 2/2", d.Admitted, d.Rejected)
	}
	// Finish one session; its slot frees up.
	for i := 0; i < 50 && !g.AllDone(); i++ {
		if _, err := g.Step(); err != nil {
			t.Fatal(err)
		}
		ep2.Advance()
	}
	if !g.AllDone() {
		t.Fatal("sessions did not finish")
	}
	if _, err := g.Attach(ep3, src); err != nil {
		t.Fatalf("attach after slots freed: %v", err)
	}
}

// TestAdmissionHeadroom: the Eq.-1-style headroom check sums the
// reported required rates of everyone in service and rejects a newcomer
// that would push demand past AdmitHeadroomFrac × Capacity.
func TestAdmissionHeadroom(t *testing.T) {
	cfg := testConfig() // Capacity 5000
	cfg.AdmitHeadroomFrac = 0.1
	g, err := New(cfg, sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	attachUser(t, g, 5000, 400, -60)
	// One step so the first user's report is on record.
	if _, err := g.Step(); err != nil {
		t.Fatal(err)
	}
	ep, err := NewLocalEndpoint(signal.Constant(-60, signal.DefaultBounds), 400, false)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := NewPatternSource(500)
	var oce *cell.OverCapacityError
	_, err = g.Attach(ep, src)
	if !errors.As(err, &oce) || oce.Reason != "headroom" {
		t.Fatalf("headroom rejection: got %v", err)
	}
	if oce.DemandKBps != 800 || oce.LimitKBps != 500 {
		t.Fatalf("headroom fields: demand=%v limit=%v, want 800/500", oce.DemandKBps, oce.LimitKBps)
	}
	// A session that fits inside the remaining headroom is admitted.
	epSmall, err := NewLocalEndpoint(signal.Constant(-60, signal.DefaultBounds), 100, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Attach(epSmall, src); err != nil {
		t.Fatalf("within-headroom attach: %v", err)
	}
}

// TestDrain: BeginDrain stops admission, keeps serving what's in
// flight, and Drained flips only once the last session finished.
func TestDrain(t *testing.T) {
	g, err := New(testConfig(), sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	ep1, _ := attachUser(t, g, 500, 400, -60)
	ep2, _ := attachUser(t, g, 800, 400, -60)
	if g.isDraining() || g.Drained() {
		t.Fatal("fresh gateway claims to be draining")
	}
	g.BeginDrain()
	g.BeginDrain() // idempotent
	if !g.isDraining() {
		t.Fatal("BeginDrain did not take")
	}
	if g.Drained() {
		t.Fatal("Drained with sessions still in service")
	}
	ep3, err := NewLocalEndpoint(signal.Constant(-60, signal.DefaultBounds), 400, false)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := NewPatternSource(500)
	if _, err := g.Attach(ep3, src); !errors.Is(err, errDraining) {
		t.Fatalf("attach while draining: got %v, want errDraining", err)
	}
	for i := 0; i < 80 && !g.Drained(); i++ {
		if _, err := g.Step(); err != nil {
			t.Fatal(err)
		}
		ep1.Advance()
		ep2.Advance()
	}
	if !g.Drained() {
		t.Fatal("drain never completed")
	}
	d := g.Diagnostics()
	if d.Drained != 2 {
		t.Fatalf("diag drained=%d, want 2", d.Drained)
	}
	if d.Rejected != 1 {
		t.Fatalf("diag rejected=%d, want 1", d.Rejected)
	}
}

// TestShedOrdering pins the victim-selection policy without timing: no
// shed one miss short of shedMissThreshold, a window of met deadlines
// slides the misses out, then lowest playback buffer first, newest
// session on buffer ties, at most ShedMaxPerSlot victims, and the miss
// window resets after a shed.
func TestShedOrdering(t *testing.T) {
	cfg := testConfig()
	cfg.Policy = Policy{ShedMaxPerSlot: 2}
	g, err := New(cfg, sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		attachUser(t, g, 5000, 400, -60)
	}
	ticks := func(n int, missed bool) {
		for i := 0; i < n; i++ {
			g.noteTick(time.Millisecond, missed)
		}
	}
	g.mu.Lock()
	g.users[0].bufferSec = 9
	g.users[1].bufferSec = 2
	g.users[2].bufferSec = 5
	g.users[3].bufferSec = 2 // ties user 1; newer, so shed first
	ticks(shedMissThreshold-1, true)
	g.maybeShed()
	ticks(shedMissWindowSlots, false)
	slid := g.missCount
	ticks(1, true)
	g.maybeShed()
	shedEarly := g.diag.Shed
	ticks(shedMissThreshold-1, true)
	g.maybeShed()
	missCount := g.missCount
	g.mu.Unlock()
	if shedEarly != 0 || slid != 0 {
		t.Fatalf("shed %d below the threshold; %d misses left after a window of met deadlines", shedEarly, slid)
	}
	d := g.Diagnostics()
	if d.Shed != 2 {
		t.Fatalf("shed %d sessions, want 2", d.Shed)
	}
	for id, want := range map[int]DetachReason{0: "", 1: detachShed, 2: "", 3: detachShed} {
		st, err := g.StatsFor(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.DetachReason != want {
			t.Errorf("user %d: reason %q, want %q", id, st.DetachReason, want)
		}
	}
	if missCount != 0 {
		t.Fatalf("miss window not reset after shed: %d", missCount)
	}
	// Below the threshold nothing sheds.
	g.mu.Lock()
	ticks(1, true)
	g.maybeShed()
	g.mu.Unlock()
	if d := g.Diagnostics(); d.Shed != 2 {
		t.Fatalf("shed below threshold: %d, want still 2", d.Shed)
	}
}

// slowEndpoint absorbs every payload successfully but takes longer than
// any reasonable slot deadline to do it — the sustained-overload shape
// (as opposed to stalledEndpoint's never-returns shape).
type slowEndpoint struct{ delay time.Duration }

func (e *slowEndpoint) Report() (Report, bool) { return Report{Sig: -60, Rate: 400}, true }
func (e *slowEndpoint) Deliver([]byte) error   { time.Sleep(e.delay); return nil }

// TestShedUnderDeadlinePressure is the end-to-end overload story: an
// endpoint whose deliveries persistently outlive the slot deadline
// accumulates misses in the shedder's window until it is shed with
// detachShed, and the tick histogram has observed the pressure.
func TestShedUnderDeadlinePressure(t *testing.T) {
	cfg := testConfig()
	cfg.Policy = Policy{
		AsyncDelivery:  true,
		SlotDeadline:   time.Millisecond,
		BreakerTrips:   -1, // isolate the shedder from the breaker
		ShedMaxPerSlot: 1,
	}
	g, err := New(cfg, sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	slow := &slowEndpoint{delay: 5 * time.Millisecond}
	src, _ := NewPatternSource(100000)
	id, err := g.Attach(slow, src)
	if err != nil {
		t.Fatal(err)
	}
	shedAt := -1
	for slot := 0; slot < 60; slot++ {
		if _, err := g.Step(); err != nil {
			t.Fatal(err)
		}
		if g.Diagnostics().Shed > 0 {
			shedAt = slot
			break
		}
		// Pace the tick so each slow delivery lands before the next slot
		// grants again — every granted slot then misses its deadline.
		time.Sleep(20 * time.Millisecond)
	}
	if shedAt < 0 {
		t.Fatal("persistent deadline pressure never shed the session")
	}
	st, err := g.StatsFor(id)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Detached || st.DetachReason != detachShed {
		t.Fatalf("shed victim state: detached=%v reason=%q", st.Detached, st.DetachReason)
	}
	if p99 := g.TickQuantileMs(0.99); p99 <= 0 {
		t.Fatalf("tick histogram empty after %d slots", shedAt+1)
	}
}

// waitGoroutines polls until the goroutine count returns to the
// baseline taken before the scenario, failing after the deadline. The
// delivery workers are the gateway's only goroutines, so convergence to
// the baseline is exactly "no leaked worker".
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d running, baseline %d\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestNoGoroutineLeakOnCompletion: sessions that run to their natural
// end leave no delivery workers behind once the gateway is closed.
func TestNoGoroutineLeakOnCompletion(t *testing.T) {
	base := runtime.NumGoroutine()
	g, err := New(asyncConfig(), sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]*LocalEndpoint, 3)
	for i := range eps {
		eps[i], _ = attachUser(t, g, 800, 400, -60)
	}
	for i := 0; i < 60 && !g.AllDone(); i++ {
		if _, err := g.Step(); err != nil {
			t.Fatal(err)
		}
		for _, ep := range eps {
			ep.Advance()
		}
	}
	if !g.AllDone() {
		t.Fatal("sessions did not finish")
	}
	g.Close()
	waitGoroutines(t, base)
}

// TestNoGoroutineLeakOnFatalDetach: a fatally-detached user's worker is
// reaped at detach time — before any Close.
func TestNoGoroutineLeakOnFatalDetach(t *testing.T) {
	base := runtime.NumGoroutine()
	g, err := New(asyncConfig(), sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ep, id := attachUser(t, g, 100000, 400, -60)
	if _, err := g.Step(); err != nil {
		t.Fatal(err)
	}
	ep.Disconnect()
	for i := 0; i < 20; i++ {
		if _, err := g.Step(); err != nil {
			t.Fatal(err)
		}
		if st, _ := g.StatsFor(id); st.Detached {
			break
		}
	}
	if st, _ := g.StatsFor(id); !st.Detached || st.DetachReason != detachFatal {
		t.Fatalf("disconnect did not fatally detach: %+v", st)
	}
	waitGoroutines(t, base) // worker gone without Close
}

// TestNoGoroutineLeakOnBreakerDetach: a breaker-opened user's worker is
// reaped when the breaker trips.
func TestNoGoroutineLeakOnBreakerDetach(t *testing.T) {
	base := runtime.NumGoroutine()
	g, err := New(asyncConfig(), sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	src, _ := NewPatternSource(100000)
	id, err := g.Attach(&failingEndpoint{}, src)
	if err != nil {
		t.Fatal(err)
	}
	detached := false
	for i := 0; i < 200 && !detached; i++ {
		if _, err := g.Step(); err != nil {
			t.Fatal(err)
		}
		st, _ := g.StatsFor(id)
		detached = st.Detached
	}
	if st, _ := g.StatsFor(id); !detached || st.DetachReason != detachBreaker {
		t.Fatalf("breaker did not open: %+v", st)
	}
	waitGoroutines(t, base)
}

// TestNoGoroutineLeakOnShed: a session shed while its delivery is in
// flight keeps its worker only until the outcome lands, then the worker
// exits.
func TestNoGoroutineLeakOnShed(t *testing.T) {
	base := runtime.NumGoroutine()
	cfg := testConfig()
	cfg.Policy = Policy{
		AsyncDelivery:  true,
		SlotDeadline:   time.Millisecond,
		BreakerTrips:   -1,
		ShedMaxPerSlot: 1,
	}
	g, err := New(cfg, sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	slow := &slowEndpoint{delay: 5 * time.Millisecond}
	src, _ := NewPatternSource(100000)
	if _, err := g.Attach(slow, src); err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 60 && g.Diagnostics().Shed == 0; slot++ {
		if _, err := g.Step(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if g.Diagnostics().Shed == 0 {
		t.Fatal("session never shed")
	}
	// A few more ticks so an in-flight outcome can land and release the
	// worker; the leak check then converges without Close.
	for i := 0; i < 5; i++ {
		if _, err := g.Step(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	waitGoroutines(t, base)
}

// TestNoGoroutineLeakOnDrain: draining to completion and closing the
// gateway releases every worker.
func TestNoGoroutineLeakOnDrain(t *testing.T) {
	base := runtime.NumGoroutine()
	g, err := New(asyncConfig(), sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]*LocalEndpoint, 3)
	for i := range eps {
		eps[i], _ = attachUser(t, g, 800, 400, -60)
	}
	g.BeginDrain()
	for i := 0; i < 80 && !g.Drained(); i++ {
		if _, err := g.Step(); err != nil {
			t.Fatal(err)
		}
		for _, ep := range eps {
			ep.Advance()
		}
	}
	if !g.Drained() {
		t.Fatal("drain never completed")
	}
	g.Close()
	waitGoroutines(t, base)
}
