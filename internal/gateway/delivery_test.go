package gateway

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"jointstream/internal/sched"
	"jointstream/internal/signal"
	"jointstream/internal/units"
)

// asyncConfig returns a gateway config with the async delivery path and a
// short slot deadline suitable for tests.
func asyncConfig() Config {
	c := testConfig()
	c.Policy = Policy{AsyncDelivery: true, SlotDeadline: 5 * time.Millisecond}
	return c
}

// stalledEndpoint reports normally but blocks every Deliver until
// Release is called — the worst case the slot-deadline machinery must
// isolate.
type stalledEndpoint struct {
	release   chan struct{}
	mu        sync.Mutex
	delivered int
}

func newStalledEndpoint() *stalledEndpoint {
	return &stalledEndpoint{release: make(chan struct{})}
}

func (e *stalledEndpoint) Report() (Report, bool) { return Report{Sig: -60, Rate: 400}, true }

func (e *stalledEndpoint) Deliver(p []byte) error {
	<-e.release
	e.mu.Lock()
	e.delivered++
	e.mu.Unlock()
	return Transient(errors.New("stall released"))
}

func (e *stalledEndpoint) Release() {
	select {
	case <-e.release:
	default:
		close(e.release)
	}
}

// TestStalledEndpointDoesNotBlockTick is the slot-time isolation proof:
// with one endpoint stalled indefinitely, every other user's per-slot
// delivery proceeds, Step latency stays bounded by the slot deadline,
// and the stalled user is detached by the breaker policy — never on the
// first error.
func TestStalledEndpointDoesNotBlockTick(t *testing.T) {
	cfg := asyncConfig()
	// Enough capacity that every user can be granted its full demand
	// each slot: per-slot progress is then a pure isolation property.
	cfg.Capacity = 20000
	g, err := New(cfg, sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	stalled := newStalledEndpoint()
	defer stalled.Release()
	defer g.Close()
	src, _ := NewPatternSource(100000)
	stalledID, err := g.Attach(stalled, src)
	if err != nil {
		t.Fatal(err)
	}
	healthy := make([]*LocalEndpoint, 3)
	ids := make([]int, 3)
	for i := range healthy {
		healthy[i], ids[i] = attachUser(t, g, 2000, 400, -60)
	}

	var prev [3]int64
	detachSlot := -1
	for slot := 0; slot < 20; slot++ {
		start := time.Now()
		if _, err := g.Step(); err != nil {
			t.Fatal(err)
		}
		if el := time.Since(start); el > time.Second {
			t.Fatalf("slot %d: Step took %v; tick latency not bounded", slot, el)
		}
		// Every healthy user must make per-slot progress until its video
		// completes.
		for i, ep := range healthy {
			got := ep.ReceivedBytes()
			if got < 2_000_000 && got <= prev[i] {
				t.Fatalf("slot %d: healthy user %d made no progress (%d bytes)", slot, ids[i], got)
			}
			prev[i] = got
		}
		st, _ := g.StatsFor(stalledID)
		if st.Detached && detachSlot < 0 {
			detachSlot = slot
		}
		if slot == 0 && st.Detached {
			t.Fatal("stalled user detached on the first error")
		}
	}
	st, _ := g.StatsFor(stalledID)
	if !st.Detached {
		t.Fatal("stalled user never detached")
	}
	if st.DetachReason != detachBreaker {
		t.Errorf("stalled user detach reason = %q, want %q", st.DetachReason, detachBreaker)
	}
	// Grant at slot 0, strikes on slots 1..BreakerTrips: detachment must
	// respect the policy window exactly.
	if detachSlot != defaultBreakerTrips {
		t.Errorf("stalled user detached at slot %d, want %d (breaker policy)", detachSlot, defaultBreakerTrips)
	}
	if st.MissedSlots < defaultBreakerTrips {
		t.Errorf("missed slots = %d, want >= %d", st.MissedSlots, defaultBreakerTrips)
	}
	for i, ep := range healthy {
		if got := ep.ReceivedBytes(); got != 2_000_000 {
			t.Errorf("healthy user %d received %d bytes, want 2000000", ids[i], got)
		}
		if err := Verify(ep.Payload()); err != nil {
			t.Errorf("healthy user %d: %v", ids[i], err)
		}
	}
}

// TestAsyncMatchesSyncForHealthyEndpoints: with prompt endpoints the
// async path must complete every delivery inside the slot and reproduce
// the synchronous path's outcome. The slot deadline is one no delivery
// here can miss: under load a prompt endpoint can overrun asyncConfig's
// 5 ms, and the misses would trip the breaker, so the outcome would
// depend on the wall clock.
func TestAsyncMatchesSyncForHealthyEndpoints(t *testing.T) {
	run := func(cfg Config) ([]Stats, [][]byte) {
		g, err := New(cfg, sched.NewDefault())
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		eps := make([]*LocalEndpoint, 3)
		for i := range eps {
			eps[i], _ = attachUser(t, g, units.KB(1000*(i+1)), 400, -60)
		}
		for i := 0; i < 100 && !g.AllDone(); i++ {
			if _, err := g.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if !g.AllDone() {
			t.Fatal("run did not finish")
		}
		stats := make([]Stats, len(eps))
		payloads := make([][]byte, len(eps))
		for i := range eps {
			stats[i], _ = g.StatsFor(i)
			payloads[i] = eps[i].Payload()
		}
		return stats, payloads
	}

	syncStats, syncPayloads := run(testConfig())
	async := testConfig()
	async.Policy = Policy{AsyncDelivery: true, SlotDeadline: 10 * time.Second}
	asyncStats, asyncPayloads := run(async)
	for i := range syncStats {
		if syncStats[i].SentKB != asyncStats[i].SentKB {
			t.Errorf("user %d: sentKB sync %v != async %v", i, syncStats[i].SentKB, asyncStats[i].SentKB)
		}
		if syncStats[i].RebufferSec != asyncStats[i].RebufferSec {
			t.Errorf("user %d: rebuffer sync %v != async %v", i, syncStats[i].RebufferSec, asyncStats[i].RebufferSec)
		}
		if len(syncPayloads[i]) != len(asyncPayloads[i]) {
			t.Errorf("user %d: payload sync %d bytes != async %d bytes", i, len(syncPayloads[i]), len(asyncPayloads[i]))
		}
		if err := Verify(asyncPayloads[i]); err != nil {
			t.Errorf("user %d async payload: %v", i, err)
		}
	}
}

// flakyReporter drops its report during [from, to) slots, then recovers.
type flakyReporter struct {
	*LocalEndpoint
	calls    int
	from, to int
}

func (e *flakyReporter) Report() (Report, bool) {
	n := e.calls
	e.calls++
	if n >= e.from && n < e.to {
		return Report{}, false
	}
	return e.LocalEndpoint.Report()
}

// TestStaleReportGraceReattaches: a report dropout shorter than the grace
// window must not detach the user; service resumes and the reattach is
// counted.
func TestStaleReportGraceReattaches(t *testing.T) {
	inner, err := NewLocalEndpoint(signal.Constant(-60, signal.DefaultBounds), 400, false)
	if err != nil {
		t.Fatal(err)
	}
	// 60 MB at ≤5 MB/slot keeps the session alive well past the dropout
	// window at slots 2..6.
	ep := &flakyReporter{LocalEndpoint: inner, from: 2, to: 2 + staleGraceSlots}
	g, _ := New(testConfig(), sched.NewDefault())
	src, _ := NewPatternSource(60000)
	id, err := g.Attach(ep, src)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300 && !g.AllDone(); i++ {
		if _, err := g.Step(); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := g.StatsFor(id)
	if st.Detached {
		t.Fatalf("user detached during grace window (reason %q)", st.DetachReason)
	}
	if !g.AllDone() {
		t.Fatal("session did not complete after reattach")
	}
	if got := inner.ReceivedBytes(); got != 60_000_000 {
		t.Errorf("received %d bytes, want 60000000", got)
	}
	d := g.Diagnostics()
	if d.Reattaches != 1 {
		t.Errorf("reattaches = %d, want 1", d.Reattaches)
	}
	if d.StaleSlots != staleGraceSlots {
		t.Errorf("stale slots = %d, want %d", d.StaleSlots, staleGraceSlots)
	}
}

// TestStaleReportDetachesAfterGrace: a report that never comes back
// detaches the user exactly one slot past the grace window, with the
// stale reason.
func TestStaleReportDetachesAfterGrace(t *testing.T) {
	inner, err := NewLocalEndpoint(signal.Constant(-60, signal.DefaultBounds), 400, false)
	if err != nil {
		t.Fatal(err)
	}
	ep := &flakyReporter{LocalEndpoint: inner, from: 1, to: 1 << 30}
	g, _ := New(testConfig(), sched.NewDefault())
	src, _ := NewPatternSource(100000)
	id, err := g.Attach(ep, src)
	if err != nil {
		t.Fatal(err)
	}
	detachSlot := -1
	for i := 0; i < 20; i++ {
		g.Step()
		if st, _ := g.StatsFor(id); st.Detached {
			detachSlot = i
			if st.DetachReason != detachStale {
				t.Errorf("detach reason = %q, want %q", st.DetachReason, detachStale)
			}
			break
		}
	}
	// Reports drop from slot 1; grace covers slots 1..1+grace-1, so the
	// detach lands at slot 1+grace.
	if want := 1 + staleGraceSlots; detachSlot != want {
		t.Errorf("stale user detached at slot %d, want %d", detachSlot, want)
	}
	if d := g.Diagnostics(); d.StaleDetaches != 1 {
		t.Errorf("stale detaches = %d, want 1", d.StaleDetaches)
	}
}

// recordingEndpoint logs the slot of every Deliver attempt and always
// fails transiently, exposing the backoff schedule.
type recordingEndpoint struct {
	g     *Gateway
	slots []int
}

func (e *recordingEndpoint) Report() (Report, bool) { return Report{Sig: -60, Rate: 400}, true }

func (e *recordingEndpoint) Deliver(p []byte) error {
	e.slots = append(e.slots, e.g.slot)
	return Transient(errors.New("always failing"))
}

// TestExponentialBackoffSchedule pins the deterministic retry spacing:
// attempts at slots 0, 2, 5, 10, 19 (backoff 1, 2, 4, 8 capped), then the
// breaker opens on the fifth consecutive failure.
func TestExponentialBackoffSchedule(t *testing.T) {
	g, _ := New(testConfig(), sched.NewDefault())
	ep := &recordingEndpoint{g: g}
	src, _ := NewPatternSource(100000)
	id, err := g.Attach(ep, src)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		g.Step()
	}
	want := []int{0, 2, 5, 10, 19}
	if len(ep.slots) != len(want) {
		t.Fatalf("deliver attempts at slots %v, want %v", ep.slots, want)
	}
	for i := range want {
		if ep.slots[i] != want[i] {
			t.Fatalf("deliver attempts at slots %v, want %v", ep.slots, want)
		}
	}
	st, _ := g.StatsFor(id)
	if !st.Detached || st.DetachReason != detachBreaker {
		t.Errorf("user detached=%v reason=%q, want breaker detach", st.Detached, st.DetachReason)
	}
}

// TestClassify pins the error classification table.
func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want ErrorClass
	}{
		{Transient(errors.New("x")), transientError},
		{fatal(errors.New("x")), fatalError},
		{errors.New("unknown"), transientError},
		{timeoutError{}, transientError},
	}
	for i, c := range cases {
		if got := classify(c.err); got != c.want {
			t.Errorf("case %d: classify(%v) = %v, want %v", i, c.err, got, c.want)
		}
	}
}

// timeoutError mimics a net.Error timeout.
type timeoutError struct{}

func (timeoutError) Error() string   { return "i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// gatedEndpoint holds every Deliver until release is closed, then lands it.
type gatedEndpoint struct {
	*LocalEndpoint
	release chan struct{}
}

func (e *gatedEndpoint) Deliver(p []byte) error {
	<-e.release
	return e.LocalEndpoint.Deliver(p)
}

// TestLateDeliveryAfterDetachIsCommitted: a delivery that outlives its
// slot's deadline until the breaker has detached its session still lands,
// so the gateway is not done until a Step has credited it. The stepping
// loop is the chaos scenario's; the endpoint is released only once the
// session reads detached, so the breaker trips first on any machine.
func TestLateDeliveryAfterDetachIsCommitted(t *testing.T) {
	g, err := New(asyncConfig(), sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	local, err := NewLocalEndpoint(signal.Constant(-60, signal.DefaultBounds), 400, true)
	if err != nil {
		t.Fatal(err)
	}
	ep := &gatedEndpoint{LocalEndpoint: local, release: make(chan struct{})}
	src, _ := NewPatternSource(3000)
	id, err := g.Attach(ep, src)
	if err != nil {
		t.Fatal(err)
	}
	released := false
	for n := 0; n < 2000 && !g.AllDone(); n++ {
		if _, err := g.Step(); err != nil {
			t.Fatal(err)
		}
		if st, _ := g.StatsFor(id); st.Detached && !released {
			close(ep.release)
			released = true
		}
		time.Sleep(asyncConfig().Policy.SlotDeadline / 4)
	}
	if !released {
		t.Fatal("the breaker never detached the stalled session")
	}
	// Whatever the loop did, the released delivery lands.
	for start := time.Now(); local.ReceivedBytes() == 0 && time.Since(start) < 10*time.Second; {
		time.Sleep(time.Millisecond)
	}
	st, _ := g.StatsFor(id)
	got := local.ReceivedBytes()
	if got == 0 || int64(math.Round(float64(st.SentKB)*1000)) != got {
		t.Fatalf("endpoint holds %d B, gateway reports SentKB %v (%s, %d missed slots)", got, st.SentKB, st.DetachReason, st.MissedSlots)
	}
	if err := Verify(local.Payload()); err != nil {
		t.Fatal(err)
	}
}
