package cell

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"jointstream/internal/rng"
	"jointstream/internal/sched"
	"jointstream/internal/signal"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// This file tests the link window's pipeline under mutation (DESIGN.md,
// "cell · link window"): that no table operation waits for the background
// fill, and that every row a tick reads holds its current occupant's
// values for that slot. The tables here are small, so each arm forces the
// window's hand-off threshold: the size alone would keep every fill in
// place.

// distinctSession is a session no other looks like: its own stateless sine
// (seed, phase, period), its own rate and size. A row filled for the wrong
// slots, too late, never, or left with its previous occupant's values
// changes what the scheduler is offered, and so the totals.
func distinctSession(t testing.TB, k int, start int) *workload.Session {
	t.Helper()
	tr, err := signal.NewStatelessSine(signal.SineConfig{
		Bounds:      signal.DefaultBounds,
		PeriodSlots: 23 + k%17,
		Phase:       0.37 * float64(k),
		NoiseStdDBm: 4,
	}, uint64(1000+k))
	if err != nil {
		t.Fatal(err)
	}
	return &workload.Session{
		Size:      units.KB(900 + 260*(k%9)),
		BaseRate:  units.KBps(260 + 35*(k%7)),
		StartSlot: start,
		Signal:    tr,
	}
}

// openOutcome is everything an open run leaves behind; two arms of one
// script must agree on all of it, exactly.
type openOutcome struct {
	res      *Result
	st       OpenStats
	p50, p99 float64 // session rebuffering quantiles
}

func finishOpen(o *OpenSim) openOutcome {
	res := o.Finish()
	return openOutcome{res, o.Stats(), o.RebufferQuantile(0.5), o.RebufferQuantile(0.99)}
}

func (got openOutcome) mustEqual(t *testing.T, want openOutcome) {
	t.Helper()
	if got.st != want.st {
		t.Errorf("stats: tiled %+v, default blocks %+v", got.st, want.st)
	}
	if got.p50 != want.p50 || got.p99 != want.p99 {
		t.Errorf("rebuffering p50/p99: tiled %v/%v, default blocks %v/%v", got.p50, got.p99, want.p50, want.p99)
	}
	if !reflect.DeepEqual(got.res, want.res) {
		t.Errorf("result differs: tiled E=%v R=%v, default blocks E=%v R=%v",
			got.res.TotalEnergy(), got.res.TotalRebuffer(), want.res.TotalEnergy(), want.res.TotalRebuffer())
	}
}

// fillGate parks every Fill that starts at or past slot from until it is
// released: with from at the prefetched window's first slot, the
// background fill stops in its first block while the resident window's
// fills and patches pass.
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
// signal.Prewarmer, so unbounded mode accepts it.
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

// noWaitRun is one arm of the no-wait tests: the same script with the tile
// and with the default 256-slot blocks, whose fills never park. With the
// tile, everything between the first tick and the release runs while the
// background fill of the second window is parked, each call under a
// deadline.
type noWaitRun struct {
	t    *testing.T
	o    *OpenSim
	gate *fillGate
	held bool // the background fill is parked: calls must not wait for it
}

func (r *noWaitRun) do(what string, fn func() error) {
	r.t.Helper()
	if !r.held {
		if err := fn(); err != nil {
			r.t.Fatalf("%s: %v", what, err)
		}
		return
	}
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			r.t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(20 * time.Second):
		r.gate.release() // let the call unwind before failing
		<-done
		r.t.Fatalf("%s waited for the parked background fill", what)
	}
}

func (r *noWaitRun) admit(s *workload.Session) (idx int, ser uint64) {
	r.t.Helper()
	r.do("Admit", func() (err error) {
		idx, err = r.o.Admit(s)
		return err
	})
	ser, ok := r.o.Serial(idx)
	if !ok {
		r.t.Fatalf("no serial for fresh admit %d", idx)
	}
	return idx, ser
}

func (r *noWaitRun) depart(ser uint64) {
	r.t.Helper()
	r.do("DepartSerial", func() error {
		_, err := r.o.DepartSerial(-1, ser)
		return err
	})
}

func (r *noWaitRun) advance(upto int) {
	r.t.Helper()
	r.do(fmt.Sprintf("AdvanceTo(%d)", upto), func() error {
		_, err := r.o.AdvanceTo(upto)
		return err
	})
}

// park starts the run and returns once the background fill of the window
// at gate.from is parked (tiled arm only).
func (r *noWaitRun) park(tiled bool) {
	r.t.Helper()
	if err := r.o.Start(context.Background()); err != nil {
		r.t.Fatal(err)
	}
	r.advanceParked(tiled)
}

// advanceParked ticks the first slot of a started run and returns once the
// background fill of the window at gate.from is parked (tiled arm only).
func (r *noWaitRun) advanceParked(tiled bool) {
	r.t.Helper()
	r.advance(1)
	if !tiled {
		return
	}
	select {
	case <-r.gate.parked:
		r.held = true
	case <-time.After(20 * time.Second):
		r.t.Fatal("the background fill never reached the gated session")
	}
}

func (r *noWaitRun) unpark() {
	r.gate.release()
	r.held = false
}

// While the background fill is parked, Admit (a fresh row, a row freed in
// the same boundary, a start beyond the resident window), DepartSerial and
// AdvanceTo with natural completions must all return; after the release
// the run must equal the one on default blocks.
func TestOpenNoWaitWhileFillParked(t *testing.T) {
	const window = 32
	script := func(tile int) openOutcome {
		gate := newFillGate(parkFrom(tile, window))
		defer gate.release()
		initial := make([]*workload.Session, 6)
		for i := range initial {
			initial[i] = distinctSession(t, i, 0)
			initial[i].ID = i
			initial[i].Size = units.KB(300 + 100*i) // done within a few slots
		}
		initial[0].Size = 1 << 20 // in service throughout
		initial[0].Signal = gatedTrace{initial[0].Signal, gate}
		cfg := tinyConfig()
		cfg.RunFullHorizon = true
		cfg.MaxSlots = 64 // initial horizon only
		o, err := NewOpen(OpenConfig{
			Cell: cfg, Unbounded: true, MaxSessions: 64,
			TileSlots: tile,
		}, initial, sched.NewDefault())
		if err != nil {
			t.Fatal(err)
		}
		defer o.Stop()
		if tile > 0 {
			o.eng.win.handoffMin = handoffAlways
		}
		r := &noWaitRun{t: t, o: o, gate: gate}
		r.park(tile > 0)

		_, serA := r.admit(distinctSession(t, 10, 0)) // fresh row
		ser2, _ := o.Serial(2)
		r.depart(ser2)
		if idx, _ := r.admit(distinctSession(t, 11, 0)); idx != 2 {
			t.Fatalf("row freed in this boundary not reused: got %d", idx)
		}
		r.admit(distinctSession(t, 12, 40)) // starts beyond the resident window
		_, serD := r.admit(distinctSession(t, 13, 0))
		r.depart(serD)
		r.admit(distinctSession(t, 14, 0)) // the same row, a third occupant
		r.advance(5)
		r.admit(distinctSession(t, 15, 0))
		r.advance(14)
		if tile > 0 && o.Stats().Completed == 0 {
			t.Fatal("script error: nothing completed while the fill was parked")
		}
		r.admit(distinctSession(t, 16, 0)) // onto a reaped row
		r.advance(22)
		r.depart(serA)
		r.advance(window - 1)

		r.unpark()
		r.advance(window + 1) // the swap
		r.admit(distinctSession(t, 17, 0))
		r.advance(70)
		r.admit(distinctSession(t, 18, 0))
		r.advance(130)
		return finishOpen(o)
	}
	script(window).mustEqual(t, script(0))
}

// The same in bounded mode, where traces may memoize and clones of one
// template share the memo. The worker and the foreground then read one
// trace at the same time, which is safe only because Admit prewarms to
// the horizon before the row can reach a fill: under -race a memo grown
// lazily by either side fails this test.
func TestOpenNoWaitBoundedSharedTrace(t *testing.T) {
	const window, horizon = 32, 160
	script := func(tile int) openOutcome {
		gate := newFillGate(parkFrom(tile, window))
		defer gate.release()
		initial := make([]*workload.Session, 4)
		for i := range initial {
			initial[i] = distinctSession(t, i, 0)
			initial[i].ID = i
		}
		initial[0].Size = 1 << 20
		initial[0].Signal = gatedTrace{initial[0].Signal, gate}
		// A memoizing template nobody has read yet: the first Admit has to
		// grow its memo.
		walk, err := signal.NewRandomWalk(signal.RandomWalkConfig{
			Bounds: signal.DefaultBounds, Start: -70, StepStd: 5,
		}, rng.New(99))
		if err != nil {
			t.Fatal(err)
		}
		tmpl := &workload.Session{Size: 2600, BaseRate: 330, Signal: walk}
		cfg := tinyConfig()
		cfg.RunFullHorizon = true
		cfg.MaxSlots = horizon
		o, err := NewOpen(OpenConfig{
			Cell: cfg, MaxSessions: 96,
			TileSlots: tile,
		}, initial, sched.NewDefault())
		if err != nil {
			t.Fatal(err)
		}
		defer o.Stop()
		if tile > 0 {
			o.eng.win.handoffMin = handoffAlways
		}
		r := &noWaitRun{t: t, o: o, gate: gate}
		r.park(tile > 0)

		var sers []uint64
		for k := 0; k < 24; k++ {
			_, ser := r.admit(tmpl)
			sers = append(sers, ser)
		}
		r.advance(9)
		for _, ser := range sers[:6] {
			r.depart(ser)
		}
		for k := 0; k < 6; k++ {
			r.admit(tmpl) // rows freed in this boundary
		}
		r.advance(window - 1)

		r.unpark()
		// The worker now fills clones out of its snapshots while the
		// foreground admits and patches more of them.
		for n := window + 1; n < horizon; n += 3 {
			if _, err := o.Admit(tmpl); err != nil && !errors.Is(err, ErrOverCapacity) {
				t.Fatal(err)
			}
			r.advance(n)
		}
		r.advance(horizon)
		return finishOpen(o)
	}
	script(window).mustEqual(t, script(0))
}

// The background fill reads sessions in place, so an engine-owned clone
// it lists must not be recycled into a new admission before it lands.
// While the fill is parked in its first block, the clones it lists depart
// or complete and are reaped, distinct sessions are admitted into the same
// rows, and other rows are dropped; once the fill is released those
// sessions depart in turn and more arrive, with no AdvanceTo between, so
// an Admit that overwrote a clone the fill is still reading would race it
// (-race reports it). After the release the run must equal the one on
// default blocks.
func TestOpenRecycledCloneWhileFillParked(t *testing.T) {
	const window = 32
	script := func(tile int) openOutcome {
		gate := newFillGate(parkFrom(tile, window))
		defer gate.release()
		initial := make([]*workload.Session, 6)
		for i := range initial {
			initial[i] = distinctSession(t, i, 0)
			initial[i].ID = i
			initial[i].Size = 1 << 20 // in service throughout
		}
		initial[0].Signal = gatedTrace{initial[0].Signal, gate}
		cfg := tinyConfig()
		cfg.RunFullHorizon = true
		cfg.MaxSlots = 64 // initial horizon only
		o, err := NewOpen(OpenConfig{
			Cell: cfg, Unbounded: true, MaxSessions: 64,
			TileSlots: tile,
		}, initial, sched.NewDefault())
		if err != nil {
			t.Fatal(err)
		}
		defer o.Stop()
		defer gate.release() // before Stop waits the fill out
		if tile > 0 {
			o.eng.win.handoffMin = handoffAlways
		}
		r := &noWaitRun{t: t, o: o, gate: gate}
		if err := o.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		// Clones in rows 6–10, listed by the fill of the second window;
		// the last one completes within a few slots.
		var clones []uint64
		for k := 0; k < 5; k++ {
			s := distinctSession(t, 20+k, 0)
			s.Size = 1 << 20
			if k == 4 {
				s.Size = 100
			}
			_, ser := r.admit(s)
			clones = append(clones, ser)
		}
		r.advanceParked(tile > 0)

		for _, ser := range clones[:3] {
			r.depart(ser)
		}
		r.advance(24)
		if _, ok := o.Serial(10); ok {
			t.Fatal("script error: the short clone was not reaped while the fill was parked")
		}
		var second []uint64
		for k := 0; k < 4; k++ {
			idx, ser := r.admit(distinctSession(t, 30+k, 0))
			if want := []int{6, 7, 8, 10}[k]; idx != want {
				t.Fatalf("script error: admission %d went to row %d, want %d", k, idx, want)
			}
			second = append(second, ser)
		}
		ser2, _ := o.Serial(2)
		ser3, _ := o.Serial(3)
		r.depart(ser2)
		r.depart(ser3)
		r.advance(20)

		r.unpark()
		for k, ser := range second {
			r.depart(ser)
			r.admit(distinctSession(t, 40+k, 0))
		}
		r.advance(window + 1) // the swap
		r.admit(distinctSession(t, 50, 0))
		r.advance(70)
		r.admit(distinctSession(t, 51, 0))
		r.advance(130)
		return finishOpen(o)
	}
	script(window).mustEqual(t, script(0))
}

// parkFrom is the first slot whose fills a no-wait arm's gate parks: the
// tiled arm's second window, never on the default blocks.
func parkFrom(tile, window int) int {
	if tile == 0 {
		return math.MaxInt
	}
	return window
}

// churnScript drives one open run through a fixed script of admissions,
// departures and completions at every AdvanceTo boundary, every admitted
// session distinct. Within a boundary it departs, admits onto the freed
// rows, and now and then departs what it just admitted and admits again,
// so rows change occupant up to three times between two ticks; two thirds
// through, most sessions leave at once and the table compacts. The script
// depends on nothing but stride, so arms of one stride are comparable.
// handoff is the link window's forced hand-off threshold in rows × slots;
// settle waits every background fill out after each AdvanceTo, so when a
// fill lands — and with it how late rows batch — does not depend on timing.
func churnScript(t *testing.T, tile, workers, stride, handoff int, settle bool) openOutcome {
	t.Helper()
	const slots = 240
	cfg := tinyConfig()
	cfg.RunFullHorizon = true
	cfg.MaxSlots = 64 // initial horizon only
	cfg.Workers = workers
	cfg.ShardSize = 16
	initial := make([]*workload.Session, 24)
	for i := range initial {
		initial[i] = distinctSession(t, i, (i%3)*2)
		initial[i].ID = i
	}
	o, err := NewOpen(OpenConfig{
		Cell: cfg, Unbounded: true, MaxSessions: 160,
		TileSlots: tile,
	}, initial, sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	defer o.Stop()
	if tile > 0 {
		o.eng.win.handoffMin = handoff
	}
	if err := o.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	src := rng.New(5)
	next := len(initial) // distinctSession key of the next admission
	var live []uint64
	for i := range initial {
		ser, _ := o.Serial(i)
		live = append(live, ser)
	}
	admit := func(start int) {
		idx, err := o.Admit(distinctSession(t, next, start))
		next++
		if errors.Is(err, ErrOverCapacity) {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		ser, _ := o.Serial(idx)
		live = append(live, ser)
	}
	depart := func(k int) {
		if _, err := o.DepartSerial(-1, live[k]); err != nil {
			t.Fatal(err)
		}
		live = append(live[:k], live[k+1:]...)
	}
	emptied, compacted := false, false
	for clock := 0; clock < slots; clock += stride {
		if clock >= 2*slots/3 && !emptied {
			// Empty most of a table past the compaction floor.
			for len(live) > 8 {
				depart(src.Intn(len(live)))
			}
			emptied = true
		} else {
			for n := src.Intn(3); n > 0 && len(live) > 0; n-- {
				depart(src.Intn(len(live)))
			}
			for n := stride * (4 + src.Intn(3)); n > 0; n-- {
				admit(clock + src.Intn(3)*src.Intn(20)) // now, soon, or windows ahead
			}
		}
		if src.Bool(0.5) && len(live) > 0 {
			depart(len(live) - 1) // the row admitted last changes hands again
			admit(clock)
		}
		before := o.Stats().TableLen
		if _, err := o.AdvanceTo(clock + stride); err != nil {
			t.Fatal(err)
		}
		if settle {
			o.eng.win.syncFill()
		}
		st := o.Stats()
		if st.Admitted != st.Completed+st.Departed+st.InService {
			t.Fatalf("ledger leaks at slot %d: %+v", clock, st)
		}
		compacted = compacted || (before >= compactMinTable && st.TableLen < before/2)
	}
	if st := o.Stats(); st.Completed == 0 || st.Departed == 0 || !compacted {
		t.Fatalf("script error: completions, departures and a compaction wanted: compacted=%v %+v", compacted, st)
	}
	return finishOpen(o)
}

// The differential churn matrix: distinct rows, every window size from one
// slot up, serial and sharded, and AdvanceTo strides from one slot to more
// than a window (so a single call crosses two), each against the arm of
// the same stride on default 256-slot blocks. Every fill handed to the background; window
// fills handed off and a dozen late rows patched in place (the mix a big
// cell runs); nothing handed off. Exact equality.
func TestOpenChurnDistinctRows(t *testing.T) {
	for _, stride := range []int{1, 5, 40} {
		want := churnScript(t, 0, 1, stride, 0, false)
		for _, tile := range []int{1, 3, 8, 32} {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("stride%d/tile%d/w%d", stride, tile, workers), func(t *testing.T) {
					for _, handoff := range []int{handoffAlways, 12 * tile, handoffNever} {
						churnScript(t, tile, workers, stride, handoff, false).mustEqual(t, want)
					}
				})
			}
		}
	}
}

// mergeSorted and mergeSortedDesc against a sort of the concatenation.
func TestMergeSorted(t *testing.T) {
	src := rng.New(3)
	for trial := 0; trial < 200; trial++ {
		var xs, add []int // disjoint, ascending
		for v := 0; v < 60; v++ {
			switch src.Intn(4) {
			case 0:
				xs = append(xs, v)
			case 1:
				add = append(add, v)
			}
		}
		want := append(append([]int{}, xs...), add...)
		slices.Sort(want)
		if got := mergeSorted(slices.Clone(xs), add); !slices.Equal(got, want) {
			t.Fatalf("mergeSorted(%v, %v) = %v", xs, add, got)
		}
		desc := slices.Clone(xs)
		slices.Reverse(desc)
		got := mergeSortedDesc(desc, add)
		slices.Reverse(got)
		if !slices.Equal(got, want) {
			t.Fatalf("mergeSortedDesc(reversed %v, %v) = reversed %v", xs, add, got)
		}
	}
}

// TestLinkFillCounts pins cell.link.rows_filled (RowsFilled). A closed
// window whose users all stay resident fills every row of every slot once
// — none twice, and nothing past the horizon — whether its fills are
// handed off or done in place. The churn script's counts, its fills
// settled so that late rows batch the same way every time, are those of
// the window that handed its background fills a snapshot of the sessions:
// reading the row source in place fills no more and no less.
func TestLinkFillCounts(t *testing.T) {
	const users = 40
	sessions := make([]*workload.Session, users)
	for i := range sessions {
		sessions[i] = distinctSession(t, i, i%5)
		sessions[i].ID = i
		sessions[i].Size = 1 << 30 // in service past the horizon
	}
	cfg := tinyConfig()
	cfg.MaxSlots, cfg.LinkTileSlots = 100, 14 // 7-slot windows: the last one is short
	for _, handoff := range []int{handoffAlways, handoffNever} {
		before := RowsFilled()
		runForced(t, cfg, sessions, sched.NewDefault(), handoff)
		if got, want := RowsFilled()-before, int64(users*cfg.MaxSlots); got != want {
			t.Errorf("closed window, %s: %d row-slots filled, want %d", handoffName(handoff), got, want)
		}
	}
	for _, tc := range []struct {
		handoff int
		want    int64
	}{{handoffAlways, 37081}, {12 * 8, 37081}, {handoffNever, 25873}} {
		before := RowsFilled()
		churnScript(t, 8, 4, 5, tc.handoff, true)
		if got := RowsFilled() - before; got != tc.want {
			t.Errorf("churn script, hand-off from %d row-slots: %d row-slots filled, want %d", tc.handoff, got, tc.want)
		}
	}
}
