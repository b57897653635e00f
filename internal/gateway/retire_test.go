package gateway

import (
	"io"
	"sync/atomic"
	"testing"

	"jointstream/internal/rrc"
	"jointstream/internal/sched"
	"jointstream/internal/signal"
	"jointstream/internal/units"
)

// countingEndpoint and countingSource count what the gateway asks of a
// session's two ends.
type countingEndpoint struct {
	*LocalEndpoint
	reports, delivers atomic.Int64
}

func (e *countingEndpoint) Report() (Report, bool) {
	e.reports.Add(1)
	return e.LocalEndpoint.Report()
}

func (e *countingEndpoint) Deliver(p []byte) error {
	e.delivers.Add(1)
	return e.LocalEndpoint.Deliver(p)
}

type countingSource struct {
	*PatternSource
	reads int
}

func (s *countingSource) Read(p []byte) (int, error) {
	s.reads++
	return s.PatternSource.Read(p)
}

func attachCounting(t *testing.T, g *Gateway, sizeKB units.KB) (*countingEndpoint, *countingSource, int) {
	t.Helper()
	local, err := NewLocalEndpoint(signal.Constant(-60, signal.DefaultBounds), 400, false)
	if err != nil {
		t.Fatal(err)
	}
	pattern, err := NewPatternSource(sizeKB)
	if err != nil {
		t.Fatal(err)
	}
	ep, src := &countingEndpoint{LocalEndpoint: local}, &countingSource{PatternSource: pattern}
	id, err := g.Attach(ep, src)
	if err != nil {
		t.Fatal(err)
	}
	return ep, src, id
}

// TestEndedSessionIsNeverPolled: once a session has completed or been
// detached the gateway asks nothing more of its endpoint or its source,
// while StatsFor keeps answering — the tail of a completed session burns
// on to the Eq. 4 total and then stands still.
func TestEndedSessionIsNeverPolled(t *testing.T) {
	for _, async := range []bool{false, true} {
		cfg := energyConfig()
		cfg.Policy.AsyncDelivery = async
		g, err := New(cfg, sched.NewDefault())
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		doneEP, doneSrc, doneID := attachCounting(t, g, 1000)   // completes in its first slot
		goneEP, goneSrc, goneID := attachCounting(t, g, 100000) // hangs up after it
		_, _, busyID := attachCounting(t, g, 100000)            // keeps the gateway serving
		if _, err := g.Step(); err != nil {
			t.Fatal(err)
		}
		goneEP.Disconnect()
		for i := 0; i < staleGraceSlots+2; i++ {
			if _, err := g.Step(); err != nil {
				t.Fatal(err)
			}
		}
		done, _ := g.StatsFor(doneID)
		gone, _ := g.StatsFor(goneID)
		if !done.Done || done.Detached || !gone.Detached {
			t.Fatalf("async=%v: scenario broke: done %+v, gone %+v", async, done, gone)
		}
		type calls struct{ reports, delivers, reads int64 }
		snapshot := func() [2]calls {
			return [2]calls{
				{doneEP.reports.Load(), doneEP.delivers.Load(), int64(doneSrc.reads)},
				{goneEP.reports.Load(), goneEP.delivers.Load(), int64(goneSrc.reads)},
			}
		}
		before := snapshot()

		tail := float64(rrc.Paper3G().MaxTailEnergy())
		prev := done.TailEnergy
		drainSlots := int(float64(rrc.Paper3G().TailDrainedAfter())/float64(cfg.Tau)) + 2
		for i := 0; i < drainSlots; i++ {
			if _, err := g.Step(); err != nil {
				t.Fatal(err)
			}
			st, err := g.StatsFor(doneID)
			if err != nil {
				t.Fatal(err)
			}
			if st.TailEnergy < prev {
				t.Fatalf("async=%v: tail energy fell from %v to %v", async, prev, st.TailEnergy)
			}
			prev = st.TailEnergy
		}
		if got := float64(prev); got < tail*(1-1e-9) || got > tail*(1+1e-9) {
			t.Errorf("async=%v: drained tail energy = %v mJ, want Eq. 4's %v", async, got, tail)
		}
		for i := 0; i < 5; i++ {
			g.Step()
		}
		if st, _ := g.StatsFor(doneID); st.TailEnergy != prev || st.BufferSec != 0 {
			t.Errorf("async=%v: a drained session's stats still move: %+v", async, st)
		}
		if st, _ := g.StatsFor(goneID); st.TailEnergy != gone.TailEnergy || st.SentKB != gone.SentKB {
			t.Errorf("async=%v: a detached session's stats moved: %+v, were %+v", async, st, gone)
		}
		if after := snapshot(); after != before {
			t.Errorf("async=%v: ended sessions were polled: calls %+v, were %+v", async, after, before)
		}
		if st, _ := g.StatsFor(busyID); st.Done || st.Detached || st.SentKB == 0 {
			t.Errorf("async=%v: the session in service stopped being served: %+v", async, st)
		}
		g.mu.Lock()
		if len(g.live) != 1 || g.users[doneID].ep != nil || g.users[goneID].src != nil || g.users[doneID].buf != nil {
			t.Errorf("async=%v: %d live sessions, ended ones still hold their ends", async, len(g.live))
		}
		g.mu.Unlock()
	}
}

// churn runs sessions of sizeKB through g, k in service, each completion
// replaced until total have been attached, and returns the endpoints in
// service at the end.
func churn(t testing.TB, g *Gateway, k, total int, sizeKB units.KB) []*LocalEndpoint {
	t.Helper()
	attach := func() *LocalEndpoint {
		ep, err := NewLocalEndpoint(signal.Constant(-60, signal.DefaultBounds), 400, false)
		if err != nil {
			t.Fatal(err)
		}
		src, err := NewPatternSource(sizeKB)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Attach(ep, src); err != nil {
			t.Fatal(err)
		}
		return ep
	}
	live := make([]*LocalEndpoint, k)
	for i := range live {
		live[i] = attach()
	}
	want := int64(float64(sizeKB) * 1000)
	for attached := k; attached < total; {
		if _, err := g.Step(); err != nil {
			t.Fatal(err)
		}
		for i, ep := range live {
			if ep.ReceivedBytes() >= want && attached < total {
				live[i] = attach()
				attached++
			}
		}
	}
	return live
}

// churnConfig serves k sessions of 400 KB/s at τ = 0.1 s, so a 200 KB video
// takes a handful of slots.
func churnConfig(k int) Config {
	cfg := energyConfig()
	cfg.Tau, cfg.Unit, cfg.QueueCap = 0.1, 10, 500
	cfg.Capacity = units.KBps(k * 450)
	return cfg
}

// TestQueueBuffersRecycled: ten times K sessions through K in service need
// K receiver queues and a slot view of K rows, not ten times K.
func TestQueueBuffersRecycled(t *testing.T) {
	const k = 32
	g, err := New(churnConfig(k), sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	churn(t, g, k, 10*k, 200)
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.users) != 10*k || len(g.live) > k {
		t.Fatalf("%d sessions attached, %d live; want %d and at most %d", len(g.users), len(g.live), 10*k, k)
	}
	// A completion and its replacement's first fill are a slot apart, so a
	// buffer is always on hand: the gateway never makes more than K.
	if g.bufsMade > k {
		t.Errorf("%d queue buffers made for %d in service", g.bufsMade, k)
	}
	// Each is a ring of exactly QueueCap bytes, pooled or in use.
	held := len(g.freeBufs)
	for _, b := range g.freeBufs {
		if len(b) != g.capBytes {
			t.Errorf("free list holds a %d-byte queue buffer, QueueCap is %d bytes", len(b), g.capBytes)
		}
	}
	for _, u := range g.live {
		if u.buf != nil {
			held++
			if len(u.buf) != g.capBytes {
				t.Errorf("session %d queues in %d bytes, QueueCap is %d bytes", u.id, len(u.buf), g.capBytes)
			}
		}
	}
	if held > k {
		t.Errorf("%d queue buffers held, on sessions and the free list, for %d in service", held, k)
	}
	if n := cap(g.cols.MaxUnits); n > 2*k || len(g.alloc) > k {
		t.Errorf("slot view of %d rows, room for %d, for %d in service", len(g.alloc), n, k)
	}
}

// TestStepAfterClose: Close gives the queue buffers away, so the gateway
// must refuse to serve from them; the ledger stays readable.
func TestStepAfterClose(t *testing.T) {
	g, err := New(churnConfig(2), sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	churn(t, g, 2, 4, 200)
	g.Close()
	if _, err := g.Step(); err == nil {
		t.Error("Step after Close served")
	}
	for id := 0; id < 4; id++ {
		if _, err := g.StatsFor(id); err != nil {
			t.Errorf("StatsFor(%d) after Close: %v", id, err)
		}
	}
}

// viewSpy is a scheduler that checks the slot view against the sessions'
// RRC tails, and serves everyone in full except in slots [idleFrom,
// idleTo), so that sessions idle through their tails with data queued.
type viewSpy struct {
	t                *testing.T
	g                *Gateway
	idleFrom, idleTo int
	// Rows compared, by state: never active, in the tail, tail drained.
	never, tailing, drained int
}

func (*viewSpy) Name() string { return "view-spy" }

func (s *viewSpy) Allocate(slot *sched.Slot, alloc []int) {
	// Allocate runs under g.mu, so the tails can be read directly.
	drained := s.g.cfg.RRC.TailDrainedAfter()
	for i, u := range s.g.live {
		m := u.Tail
		if !slot.ActiveAt(i) {
			continue
		}
		if slot.TailGapAt(i) != m.Gap || slot.NeverActiveAt(i) == m.EverActive {
			s.t.Errorf("slot %d user %d: view says gap %v never-active %v, tail says gap %v ever-active %v",
				slot.N, i, slot.TailGapAt(i), slot.NeverActiveAt(i), m.Gap, m.EverActive)
		}
		switch {
		case !m.EverActive:
			s.never++
		case m.Drained(drained):
			s.drained++
		case m.Gap > 0:
			s.tailing++
		}
		if slot.N < s.idleFrom || slot.N >= s.idleTo {
			alloc[i] = slot.MaxUnitsAt(i)
		}
	}
}

// TestSlotViewCarriesTailState: with an RRC profile configured the view a
// scheduler prices the tail from (EMA's skip cost, Predictive) follows each
// session's RRC tail — before its first transfer, through the tail
// after one and past T1+T2 — and stays at the zero values without one.
func TestSlotViewCarriesTailState(t *testing.T) {
	cfg := energyConfig() // τ = 1 s against T1+T2 = 7.31 s
	spy := &viewSpy{t: t, idleFrom: 2, idleTo: 14}
	g, err := New(cfg, spy)
	if err != nil {
		t.Fatal(err)
	}
	spy.g = g
	attachUser(t, g, 100000, 400, -60)
	attachUser(t, g, 100000, 400, -80)
	for i := 0; i < 16; i++ {
		if _, err := g.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if spy.never != 2 || spy.tailing == 0 || spy.drained == 0 {
		t.Errorf("spy compared %d never-active, %d tailing, %d drained rows; want 2 and some of each", spy.never, spy.tailing, spy.drained)
	}

	// No RRC profile: no tail accounting, and both fields stay zero.
	plain, err := New(testConfig(), zeroTailSpy{t})
	if err != nil {
		t.Fatal(err)
	}
	attachUser(t, plain, 2000, 400, -60)
	for i := 0; i < 3; i++ {
		plain.Step()
	}
}

type zeroTailSpy struct{ t *testing.T }

func (zeroTailSpy) Name() string { return "zero-tail-spy" }

func (s zeroTailSpy) Allocate(slot *sched.Slot, alloc []int) {
	for i := 0; i < slot.NumUsers(); i++ {
		if slot.TailGapAt(i) != 0 || slot.NeverActiveAt(i) {
			s.t.Errorf("user %d: tail state %v/%v without an RRC profile", i, slot.TailGapAt(i), slot.NeverActiveAt(i))
		}
	}
}

// TestPatternSourceReadChunks: whatever the chunking, the stream is the
// 256-periodic pattern Verify expects.
func TestPatternSourceReadChunks(t *testing.T) {
	src, err := NewPatternSource(20.003)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for _, n := range []int{1, 255, 256, 257, 7, 8192, 8193, 3, 100000} {
		p := make([]byte, n)
		k, err := src.Read(p)
		got = append(got, p[:k]...)
		if err == io.EOF {
			break
		}
		if err != nil || k != n {
			t.Fatalf("Read(%d) = %d, %v", n, k, err)
		}
	}
	if len(got) != 20003 {
		t.Fatalf("read %d bytes, want 20003", len(got))
	}
	if err := Verify(got); err != nil {
		t.Error(err)
	}
	if n, err := src.Read(make([]byte, 4)); n != 0 || err != io.EOF {
		t.Errorf("Read past the end = %d, %v", n, err)
	}
}
