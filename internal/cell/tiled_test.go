package cell

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"jointstream/internal/abr"
	"jointstream/internal/rng"
	"jointstream/internal/sched"
	"jointstream/internal/signal"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// tiledWorkload draws a small but structurally rich workload: staggered
// arrivals (admission paths), VBR rates (rate columns vary per slot) and
// sizes small enough that sessions complete (retirement paths). Stateless
// traces keep it identical however the link rows are compiled or read.
func tiledWorkload(t *testing.T, users int) []*workload.Session {
	t.Helper()
	cfg := workload.Config{
		Users:            users,
		SizeMin:          1500,
		SizeMax:          6000,
		RateMin:          300,
		RateMax:          600,
		RateJitterFrac:   0.2,
		MeanInterarrival: 2,
		StatelessSignal:  true,
	}
	cfg.Signal = workload.PaperDefaults(users).Signal
	sessions, err := workload.Generate(cfg, rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	return sessions
}

func tiledConfig() Config {
	cfg := PaperConfig()
	cfg.MaxSlots = 300
	// A few users per unit of capacity would never contend; shrink the
	// cell so scheduling decisions (and clamps) actually happen.
	cfg.Capacity = 3000
	return cfg
}

// handoffName labels a forced hand-off threshold in subtest names.
func handoffName(h int) string {
	if h == handoffAlways {
		return "bg"
	}
	return "inline"
}

// runForced builds a simulator for cfg, forces its link window's hand-off
// threshold, and runs it.
func runForced(t *testing.T, cfg Config, sessions []*workload.Session, s sched.Scheduler, handoff int) *Result {
	t.Helper()
	sim, err := New(cfg, sessions, s)
	if err != nil {
		t.Fatal(err)
	}
	sim.win.handoffMin = handoff
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTiledRowsMatchMonolithic is the tiling keystone: every slot's rows
// served by a sliding link window — across block lengths that do and do
// not divide the horizon, including the degenerate length 1, with fills
// handed to the background or done in place — are byte-identical to the
// compiled table's, in forward replay and after a backward jump (blocks
// refilled in both directions).
func TestTiledRowsMatchMonolithic(t *testing.T) {
	sessions := tiledWorkload(t, 6)
	cfg := tiledConfig()
	// The windows below fill from the sessions on background goroutines,
	// beside the table's own fills: compiling the table prewarmed them,
	// so no fill of either grows a memo.
	mono, err := CompileLink(cfg, sessions)
	if err != nil {
		t.Fatal(err)
	}
	for _, span := range []int{1, 7, 64, 256} {
		for _, handoff := range []int{handoffAlways, handoffNever} {
			w := newLinkWindow(1, span, len(sessions), cfg.MaxSlots, constRate(sessions), sessions)
			w.handoffMin = handoff
			defer w.stop()
			view := windowView(w)
			slotsToCheck := make([]int, 0, cfg.MaxSlots+3)
			for n := 0; n < cfg.MaxSlots; n++ {
				slotsToCheck = append(slotsToCheck, n)
			}
			// Backward jumps force a re-residency of earlier blocks.
			slotsToCheck = append(slotsToCheck, 0, cfg.MaxSlots/2, cfg.MaxSlots-1)
			for _, n := range slotsToCheck {
				mSig, mRate := mono.slot(n)
				tSig, tRate := view(n)
				for i := range mSig {
					if mSig[i] != tSig[i] || mRate[i] != tRate[i] {
						t.Fatalf("span %d %s slot %d user %d: window row != table row", span, handoffName(handoff), n, i)
					}
				}
			}
			// One block resident when every fill is done in place, two when
			// they are handed off: each borrowed by the first fill that
			// needs it, and both given back or let go by stop.
			wantBytes := int64(len(sessions)) * int64(span) * linkRowBytes
			if handoff == handoffAlways {
				wantBytes *= 2
			}
			if got := w.cur.bytes() + w.next.bytes(); got != wantBytes {
				t.Fatalf("span %d %s: %d bytes resident, want %d", span, handoffName(handoff), got, wantBytes)
			}
			w.stop()
			if got := w.cur.bytes() + w.next.bytes(); got != 0 {
				t.Fatalf("span %d %s: %d bytes resident after stop", span, handoffName(handoff), got)
			}
		}
	}
}

// TestTiledWindowAtLeastHorizonIsMonolithic pins the degenerate case: a
// tile covering the horizon still slides the run's own window, of one
// block at least half the horizon long (capped at the horizon), and equals
// RunReference; and the retained CompileLinkTiled returns a table New
// accepts for that horizon.
func TestTiledWindowAtLeastHorizonIsMonolithic(t *testing.T) {
	sessions := tiledWorkload(t, 3)
	cfg := tiledConfig()
	lt, err := CompileLinkTiled(cfg, sessions, cfg.MaxSlots+5)
	if err != nil {
		t.Fatal(err)
	}
	if lt.Slots() != cfg.MaxSlots {
		t.Fatalf("window ≥ horizon compiled %d slots, want %d", lt.Slots(), cfg.MaxSlots)
	}
	shared := cfg
	shared.Link = lt
	if _, err := New(shared, sessions, sched.NewDefault()); err != nil {
		t.Fatalf("whole-horizon table rejected: %v", err)
	}
	if _, err := CompileLinkTiled(cfg, sessions, 0); err == nil {
		t.Fatal("zero window accepted")
	}
	want, err := mustNewWith(t, cfg, sessions, sched.NewDefault()).RunReference(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, tile := range []int{cfg.MaxSlots, 3 * cfg.MaxSlots} {
		tiled := cfg
		tiled.LinkTileSlots = tile
		sim := mustNewWith(t, tiled, sessions, sched.NewDefault())
		if span := min((tile+1)/2, cfg.MaxSlots); sim.win == nil || sim.win.table != nil || sim.win.span != span {
			t.Fatalf("LinkTileSlots %d did not slide a table-less window of %d-slot blocks", tile, span)
		}
		got, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("LinkTileSlots %d: Result differs from RunReference's", tile)
		}
	}
}

// tiledCases are the closed-engine workloads of the byte-identity
// matrices: what the window must survive besides plain ticking.
var tiledCases = []struct {
	name  string
	users int
	tiles []int
	mut   func(*Config, []*workload.Session)
}{
	{"plain", 8, nil, func(*Config, []*workload.Session) {}},
	{"recorded", 8, nil, func(c *Config, _ []*workload.Session) { c.Record = RecordUserSlots }},
	{"outage", 8, nil, func(c *Config, _ []*workload.Session) { c.Outages = []Outage{{From: 40, To: 60}} }},
	// An outage across the swap at slot 32 of a 64-slot tile (and across
	// several swaps of the smaller ones).
	{"outage-swap", 8, nil, func(c *Config, _ []*workload.Session) { c.Outages = []Outage{{From: 28, To: 37}} }},
	// Arrivals in the second half-block of a 64-slot tile, at a block's
	// first and last slot, and windows later: a user admitted mid-window
	// must find its rows filled, by a fill that ran before it was live.
	{"staggered", 8, nil, func(_ *Config, wl []*workload.Session) {
		for k, start := range []int{33, 47, 63, 64, 95, 96, 130} {
			wl[k+1].StartSlot = start
		}
	}},
	{"abr", 8, nil, func(c *Config, _ []*workload.Session) {
		a := abr.DefaultConfig()
		c.ABR = &a
	}},
	// Wider than two fill shards and sharded ticks, so fills and ticks
	// fan out; fewer tile sizes keep it quick.
	{"wide", 2*fillUsers + 90, []int{2, 7, 64}, func(c *Config, _ []*workload.Session) {
		c.Capacity = 150_000
		c.ShardSize = 64
	}},
}

// tiledTiles are LinkTileSlots values of the matrices: the degenerate 1
// and 2 (one-slot blocks), sizes that do not divide the horizon, an odd
// one, the fleet's 64, the horizon itself and beyond.
var tiledTiles = []int{1, 2, 7, 33, 64, 300, 1000}

// TestTiledRunByteIdentical runs the full engine over the whole-horizon
// table and over sliding link windows — every tile size (including 1 and
// 2, where every fused pass crosses a block), one worker and four, each
// window fill handed to the background or done in place — and requires
// reflect.DeepEqual Results: per-slot totals, per-user totals, recorded
// samples, everything.
func TestTiledRunByteIdentical(t *testing.T) {
	for _, tc := range tiledCases {
		t.Run(tc.name, func(t *testing.T) {
			// Sessions carry no memo state (stateless traces, but VBR memos
			// are shared pointers — prewarmed identically), so reusing them
			// across runs is safe.
			sessions := tiledWorkload(t, tc.users)
			base := tiledConfig()
			base.Workers = 1
			tc.mut(&base, sessions)
			want := runForced(t, base, sessions, sched.NewDefault(), handoffNever)
			if want.TotalEnergy() <= 0 || want.Slots == 0 {
				t.Fatal("degenerate baseline run")
			}
			retired := 0
			for _, u := range want.Users {
				if u.CompletionSlot >= 0 && u.CompletionSlot < want.Slots-20 {
					retired++
				}
			}
			if retired == 0 {
				t.Fatal("no user finishes (and retires) mid-run")
			}
			tiles := tc.tiles
			if tiles == nil {
				tiles = tiledTiles
			}
			for _, tile := range tiles {
				for _, workers := range []int{1, 4} {
					for _, handoff := range []int{handoffAlways, handoffNever} {
						cfg := base
						cfg.LinkTileSlots, cfg.Workers = tile, workers
						got := runForced(t, cfg, sessions, sched.NewDefault(), handoff)
						if !reflect.DeepEqual(want, got) {
							t.Fatalf("tile %d workers %d %s: tiled Result differs from monolithic", tile, workers, handoffName(handoff))
						}
					}
				}
			}
		})
	}
}

// TestSteppedRunMatchesRunCtx pins the Start/Advance/Finish contract:
// a run advanced in ragged epoch chunks produces a byte-identical Result
// to the one-shot Run, tiled and monolithic alike — and so does one
// advanced in epochs of one or two blocks, whose in-place window parks at
// every epoch's end and commits the epoch's last slot unfused.
func TestSteppedRunMatchesRunCtx(t *testing.T) {
	for _, tile := range []int{0, 1, 7, 16, 33} {
		for _, handoff := range []int{handoffAlways, handoffNever} {
			span := (tile + 1) / 2
			for _, epoch := range []int{13, span, 2 * span} {
				if epoch == 0 {
					continue
				}
				t.Run(fmt.Sprintf("tile=%d,%s,epoch=%d", tile, handoffName(handoff), epoch), func(t *testing.T) {
					steppedMatchesRunCtx(t, tile, handoff, epoch)
				})
			}
		}
	}
}

func steppedMatchesRunCtx(t *testing.T, tile, handoff, epoch int) {
	sessions := tiledWorkload(t, 8)
	cfg := tiledConfig()
	cfg.LinkTileSlots = tile
	want := runForced(t, cfg, sessions, sched.NewDefault(), handoff)

	simB, err := New(cfg, sessions, sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	simB.win.handoffMin = handoff
	if _, err := simB.Advance(10); err == nil {
		t.Fatal("Advance before Start accepted")
	}
	if err := simB.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Epochs, plus redundant calls at the end.
	done := false
	for upto := epoch; !done; upto += epoch {
		var err error
		done, err = simB.Advance(upto)
		if err != nil {
			t.Fatal(err)
		}
	}
	if again, err := simB.Advance(math.MaxInt / 2); err != nil || !again {
		t.Fatalf("Advance after done: (%v, %v)", again, err)
	}
	got := simB.Finish()
	if !reflect.DeepEqual(want, got) {
		t.Fatal("stepped Result differs from Run")
	}
}

// TestAdvanceCancellation: a cancelled Start context stops Advance within
// a slot, with OpenSim.Run's error shape.
func TestAdvanceCancellation(t *testing.T) {
	sessions := tiledWorkload(t, 4)
	cfg := tiledConfig()
	sim, err := New(cfg, sessions, sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := sim.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Advance(5); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := sim.Advance(cfg.MaxSlots); err == nil {
		t.Fatal("cancelled Advance succeeded")
	}
}

// TestTiledTableNotShareable: link state narrower than the run is not a
// table a run can be handed. What the retained CompileLinkTiled returns
// covers its window only, so Config.Link's compatibility gate rejects it
// for the longer run; tiling is Config.LinkTileSlots, which must not be
// negative.
func TestTiledTableNotShareable(t *testing.T) {
	sessions := tiledWorkload(t, 4)
	cfg := tiledConfig()
	tiled, err := CompileLinkTiled(cfg, sessions, 10)
	if err != nil {
		t.Fatal(err)
	}
	if tiled.Slots() != 10 || tiled.MemoryBytes() != int64(len(sessions))*10*linkRowBytes {
		t.Fatalf("10-slot window compiled %d slots, %d bytes", tiled.Slots(), tiled.MemoryBytes())
	}
	cfg.Link = tiled
	if _, err := New(cfg, sessions, sched.NewDefault()); err == nil {
		t.Fatal("10-slot table accepted via Config.Link for a 300-slot run")
	}
	bad := tiledConfig()
	bad.LinkTileSlots = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative LinkTileSlots accepted")
	}
}

// TestTiledPredictiveRunMatches runs the Predictive scheduler — the one
// consumer of Forecast, reading a compiled table's columns — over the
// whole-horizon engine and over sliding windows, and requires identical
// results: the rows the engine prices deliveries with must be the rows
// the forecast steered by, whichever block they sit in.
func TestTiledPredictiveRunMatches(t *testing.T) {
	sessions := tiledWorkload(t, 6)
	base := tiledConfig()
	mono, err := CompileLink(base, sessions)
	if err != nil {
		t.Fatal(err)
	}
	run := func(cfg Config, handoff int) *Result {
		t.Helper()
		pred, err := sched.NewPredictive(sched.PredictiveConfig{Forecast: mono.Forecast(), Lookahead: 8})
		if err != nil {
			t.Fatal(err)
		}
		return runForced(t, cfg, sessions, pred, handoff)
	}
	want := run(base, handoffNever)
	for _, tile := range []int{1, 16, 33} {
		for _, handoff := range []int{handoffAlways, handoffNever} {
			cfg := base
			cfg.LinkTileSlots = tile
			if got := run(cfg, handoff); !reflect.DeepEqual(want, got) {
				t.Fatalf("tile %d %s: predictive run over a sliding window differs from monolithic", tile, handoffName(handoff))
			}
		}
	}
}

// failAtSlot wraps Default and, from slot at on, grants one unit more than
// the Eq. (1)/(2) limit to the first active user: a Strict run fails there.
type failAtSlot struct {
	sched.Scheduler
	at int
}

func (f failAtSlot) Allocate(slot *sched.Slot, alloc []int) {
	f.Scheduler.Allocate(slot, alloc)
	if slot.N >= f.at && len(slot.ActiveList) > 0 {
		i := slot.ActiveList[0]
		alloc[i] = slot.MaxUnitsAt(i) + 1
	}
}

// TestClosedRunGoroutineLeak: whichever way a windowed closed run ends —
// done, failed, cancelled, or built and never run on the engine — no
// goroutine of its link window is left behind: the call that ends the run
// has waited out the fill in flight (checked on the window's own state),
// and the process's goroutine count is back where it was (polled, because
// a goroutine that has signalled completion takes a moment to be gone).
func TestClosedRunGoroutineLeak(t *testing.T) {
	// Wide enough that a block fill takes a while and fans out.
	sessions := tiledWorkload(t, 4*fillUsers)
	cfg := tiledConfig()
	cfg.Capacity = 400_000
	cfg.LinkTileSlots = 8
	cfg.Workers = 2
	build := func(s sched.Scheduler, strict bool) *Simulator {
		t.Helper()
		c := cfg
		c.Strict = strict
		sim, err := New(c, sessions, s)
		if err != nil {
			t.Fatal(err)
		}
		sim.win.handoffMin = handoffAlways
		return sim
	}
	ends := map[string]func(){
		"done": func() {
			if _, err := build(sched.NewDefault(), false).Run(); err != nil {
				t.Fatal(err)
			}
		},
		"stepped-done": func() {
			sim := build(sched.NewDefault(), false)
			if err := sim.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			for upto, done := 5, false; !done; upto += 5 {
				var err error
				if done, err = sim.Advance(upto); err != nil {
					t.Fatal(err)
				}
			}
			sim.Finish()
		},
		"error": func() {
			sim := build(failAtSlot{sched.NewDefault(), 21}, true)
			if _, err := sim.Run(); err == nil {
				t.Fatal("strict run with an over-allocating scheduler succeeded")
			}
			if sim.win.handoffMin != handoffNever || sim.win.inflight {
				t.Fatal("failed run left its link window running")
			}
		},
		"cancel": func() {
			sim := build(sched.NewDefault(), false)
			ctx, cancel := context.WithCancel(context.Background())
			if err := sim.Start(ctx); err != nil {
				t.Fatal(err)
			}
			if _, err := sim.Advance(21); err != nil {
				t.Fatal(err)
			}
			if sim.win.next.sig == nil {
				t.Fatal("script error: no spare block, so no fill was ever handed off")
			}
			cancel()
			if _, err := sim.Advance(cfg.MaxSlots); err == nil {
				t.Fatal("cancelled Advance succeeded")
			}
		},
		"abandoned": func() {
			// RunReference never attaches the window: nothing is filled and
			// nothing started.
			sim := build(sched.NewDefault(), false)
			if _, err := sim.RunReference(context.Background()); err != nil {
				t.Fatal(err)
			}
			if sim.win.cur.base >= 0 || sim.win.inflight {
				t.Fatal("RunReference touched the link window")
			}
			build(sched.NewDefault(), false) // built, never started
		},
	}
	for name, end := range ends {
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			end()
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after > before {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines before, %d after:\n%s", before, after, buf[:runtime.Stack(buf, true)])
			}
		})
	}
}

// fillGate parks every Fill that starts at or past slot from until it is
// released: with from at the prefetched window's first slot, the
// background fill stops in its first block while the resident window's
// fills pass.
type fillGate struct {
	from   int
	open   chan struct{}
	parked chan struct{}
}

func newFillGate(from int) *fillGate {
	// A Fill parks once; parked has room for one token from every
	// goroutine a fill can fan out to, so announcing never blocks.
	return &fillGate{from: from, open: make(chan struct{}), parked: make(chan struct{}, 64)}
}

func (g *fillGate) release() {
	select {
	case <-g.open:
	default:
		close(g.open)
	}
}

// gatedTrace is a trace behind a fillGate. It is deliberately no
// signal.Prewarmer: a prewarm would run into the gate before the run.
type gatedTrace struct {
	signal.Trace
	g *fillGate
}

func (t gatedTrace) Fill(dst []units.DBm, from int) {
	if from >= t.g.from {
		t.g.parked <- struct{}{}
		<-t.g.open
	}
	signal.Fill(t.Trace, dst, from)
}

// TestClosedNoWaitWhileFillParked drives the parked-fill trace through a
// closed simulator: with the background fill of the second block parked,
// every tick of the first block returns; the tick that crosses into the
// second block is the one place the engine waits, and it is released by
// the fill, not by a timeout. The run equals the whole-horizon one when
// the swap has to wait for the fill (it loses every race), when every fill
// has landed long before its swap (it wins them all), and when nothing is
// handed off.
func TestClosedNoWaitWhileFillParked(t *testing.T) {
	const span = 16
	sessions := func(gate *fillGate) []*workload.Session {
		wl := make([]*workload.Session, 2*fillUsers+40)
		for i := range wl {
			wl[i] = distinctSession(t, i, (i%5)*7)
			wl[i].ID = i
		}
		if gate != nil {
			wl[0].Signal = gatedTrace{wl[0].Signal, gate}
		}
		return wl
	}
	cfg := tiledConfig()
	cfg.MaxSlots = 120
	cfg.Capacity = 60_000
	cfg.Workers = 2
	want := runForced(t, cfg, sessions(nil), sched.NewDefault(), handoffNever)
	cfg.LinkTileSlots = 2 * span

	stepped := func(name string, gate *fillGate, handoff int, between func(sim *Simulator)) {
		t.Helper()
		sim, err := New(cfg, sessions(gate), sched.NewDefault())
		if err != nil {
			t.Fatal(err)
		}
		sim.win.handoffMin = handoff
		if err := sim.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		for n := 1; n <= cfg.MaxSlots; n++ {
			if _, err := sim.Advance(n); err != nil {
				t.Fatal(err)
			}
			between(sim)
		}
		if got := sim.Finish(); !reflect.DeepEqual(want, got) {
			t.Errorf("%s: windowed Result differs from monolithic", name)
		}
	}

	// The fill wins every race: each has landed before the next tick.
	stepped("fill-first", nil, handoffAlways, func(sim *Simulator) { sim.win.syncFill() })
	stepped("inline", nil, handoffNever, func(*Simulator) {})

	// The fill loses every race: it parks in its first block, the ticks of
	// the first block go on without it, and the swap waits for it.
	gate := newFillGate(span)
	defer gate.release()
	sim, err := New(cfg, sessions(gate), sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	sim.win.handoffMin = handoffAlways
	if err := sim.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	advance := func(upto int) chan error {
		done := make(chan error, 1)
		go func() {
			_, err := sim.Advance(upto)
			done <- err
		}()
		return done
	}
	mustReturn := func(what string, done chan error) {
		t.Helper()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(20 * time.Second):
			gate.release()
			<-done
			t.Fatalf("%s waited for the parked background fill", what)
		}
	}
	mustReturn("Advance(1)", advance(1))
	select {
	case <-gate.parked:
	case <-time.After(20 * time.Second):
		t.Fatal("the background fill never reached the gated session")
	}
	for n := 2; n < span; n++ {
		mustReturn(fmt.Sprintf("Advance(%d)", n), advance(n))
	}
	// The fused pass of slot span-1 attaches slot span: the swap.
	swap := advance(span)
	select {
	case err := <-swap:
		t.Fatalf("the swap did not wait for the parked fill (err %v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	gate.release()
	mustReturn("the swap, once released", swap)
	mustReturn("the rest of the run", advance(cfg.MaxSlots))
	if got := sim.Finish(); !reflect.DeepEqual(want, got) {
		t.Error("fill-last: windowed Result differs from monolithic")
	}
}
