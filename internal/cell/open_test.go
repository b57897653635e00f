package cell

import (
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"

	"jointstream/internal/rng"
	"jointstream/internal/sched"
	"jointstream/internal/signal"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// openSessions builds a deterministic mixed workload: varying sizes,
// rates, signal levels and staggered starts, all on stateless traces.
func openSessions(n int) []*workload.Session {
	ss := make([]*workload.Session, n)
	for i := 0; i < n; i++ {
		ss[i] = &workload.Session{
			ID:        i,
			Size:      units.KB(800 + 150*i),
			BaseRate:  units.KBps(300 + 40*(i%3)),
			StartSlot: (i % 4) * 7,
			Signal:    signal.Constant(units.DBm(-55-float64(3*i)), signal.DefaultBounds),
		}
	}
	return ss
}

// close1 compares floats up to summation-order noise.
func close1(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := 1.0
	if m := a; m > scale {
		scale = m
	}
	return d <= 1e-9*scale
}

func runOpen(t *testing.T, o *OpenSim, upto int) *Result {
	t.Helper()
	if err := o.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := o.AdvanceTo(upto); err != nil {
		t.Fatal(err)
	}
	return o.Finish()
}

// With no churn and a finite horizon, the open engine must return a
// Result byte-identical to the closed Run on the same inputs — open mode
// drives the very same stepped engine.
func TestOpenClosedEquivalence(t *testing.T) {
	cfg := tinyConfig()
	closed, err := New(cfg, openSessions(6), sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	want, err := closed.Run()
	if err != nil {
		t.Fatal(err)
	}

	o, err := NewOpen(OpenConfig{Cell: cfg, MaxSessions: 6}, openSessions(6), sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	got := runOpen(t, o, cfg.MaxSlots)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("open result differs from closed run:\nclosed: %+v\nopen:   %+v", want.TotalEnergy(), got.TotalEnergy())
	}
	st := o.Stats()
	if st.Completed != 6 || st.InService != 0 || st.Admitted != 6 {
		t.Fatalf("stats after full run: %+v", st)
	}
	// Folded totals accumulate in completion order, the result totals in
	// user order: equal up to float summation order.
	if !close1(float64(st.EndedEnergy), float64(want.TotalEnergy())) ||
		!close1(float64(st.EndedRebuffer), float64(want.TotalRebuffer())) {
		t.Fatalf("folded totals (E=%v R=%v) differ from result totals (E=%v R=%v)",
			st.EndedEnergy, st.EndedRebuffer, want.TotalEnergy(), want.TotalRebuffer())
	}
}

// TestOpenLeavesInitialSessionsIntact: an open run folds every session it
// finishes, and the caller's slice of initial sessions comes out as it
// went in — reusable for a closed run of the same population, which reads
// every entry.
func TestOpenLeavesInitialSessionsIntact(t *testing.T) {
	cfg := tinyConfig()
	initial := openSessions(6)
	o, err := NewOpen(OpenConfig{Cell: cfg, MaxSessions: 6}, initial, sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	runOpen(t, o, cfg.MaxSlots)
	if st := o.Stats(); st.Completed != 6 {
		t.Fatalf("stats after full run: %+v", st)
	}
	for i, sess := range initial {
		if sess == nil {
			t.Fatalf("the open run cleared initial[%d]", i)
		}
	}
	closed, err := New(cfg, initial, sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := closed.Run(); err != nil {
		t.Fatal(err)
	}
}

// The open tile must be an invisible optimization: every slot's view of
// a run with mid-run churn matches the model's interfaces (analyticView),
// and the run on 16-slot blocks equals the one on default blocks byte for
// byte.
func TestOpenTileMatchesAnalytic(t *testing.T) {
	script := func(tileSlots int) (*Result, OpenStats) {
		cfg := tinyConfig()
		cfg.RunFullHorizon = true
		cfg.MaxSlots = 160
		chk := &analyticView{Scheduler: sched.NewDefault()}
		o, err := NewOpen(OpenConfig{Cell: cfg, MaxSessions: 8, TileSlots: tileSlots}, openSessions(3), chk)
		if err != nil {
			t.Fatal(err)
		}
		chk.o = o
		defer chk.check(t)
		if err := o.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		if _, err := o.AdvanceTo(10); err != nil {
			t.Fatal(err)
		}
		late := openSessions(5)
		if _, err := o.Admit(late[3]); err != nil {
			t.Fatal(err)
		}
		if _, err := o.AdvanceTo(30); err != nil {
			t.Fatal(err)
		}
		idx, err := o.Admit(late[4])
		if err != nil {
			t.Fatal(err)
		}
		if err := o.depart(idx); err != nil {
			t.Fatal(err)
		}
		if _, err := o.AdvanceTo(cfg.MaxSlots); err != nil {
			t.Fatal(err)
		}
		return o.Finish(), o.Stats()
	}
	resA, stA := script(0)
	resB, stB := script(16)
	if !reflect.DeepEqual(resA, resB) {
		t.Fatalf("tiled open run differs from the one on default blocks:\ndefault: %+v\ntiled:   %+v", resA.TotalEnergy(), resB.TotalEnergy())
	}
	if stA != stB {
		t.Fatalf("stats differ: default blocks %+v, tiled %+v", stA, stB)
	}
}

func TestOpenSessionCap(t *testing.T) {
	cfg := tinyConfig()
	cfg.RunFullHorizon = true
	if _, err := NewOpen(OpenConfig{Cell: cfg, MaxSessions: 2}, openSessions(3), sched.NewDefault()); !errors.Is(err, ErrOverCapacity) {
		t.Fatalf("over-cap initial population: got %v, want ErrOverCapacity", err)
	}

	o, err := NewOpen(OpenConfig{Cell: cfg, MaxSessions: 2}, openSessions(2), sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	extra := openSessions(3)[2]
	_, err = o.Admit(extra)
	var oc *OverCapacityError
	if !errors.As(err, &oc) || oc.Reason != "session-cap" {
		t.Fatalf("admit at cap: got %v, want session-cap OverCapacityError", err)
	}
	if st := o.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}
	// A departure frees a slot; the same session is then admissible.
	if err := o.depart(0); err != nil {
		t.Fatal(err)
	}
	idx, err := o.Admit(extra)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 0 {
		t.Fatalf("freed slot not reused: got index %d, want 0", idx)
	}
}

func TestOpenHeadroom(t *testing.T) {
	cfg := tinyConfig()
	cfg.RunFullHorizon = true
	cfg.Capacity = 1000
	ss := openSessions(2)
	ss[0].BaseRate = 400
	ss[1].BaseRate = 400
	// Limit 0.5 × 1000 = 500 KB/s: the first session fits, the second
	// would push demand to 800.
	o, err := NewOpen(OpenConfig{Cell: cfg, MaxSessions: 8, HeadroomFrac: 0.5}, ss[:1], sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, err = o.Admit(ss[1])
	var oc *OverCapacityError
	if !errors.As(err, &oc) || oc.Reason != "headroom" {
		t.Fatalf("got %v, want headroom OverCapacityError", err)
	}
	if oc.DemandKBps != 800 || oc.LimitKBps != 500 {
		t.Fatalf("headroom error fields: %+v", oc)
	}
	if !errors.Is(err, ErrOverCapacity) {
		t.Fatal("headroom error must match ErrOverCapacity")
	}
}

// Free-list discipline: freed table slots are reused lowest-first, and
// the per-user state of a reused slot belongs entirely to the new
// session.
func TestOpenFreelistReuse(t *testing.T) {
	cfg := tinyConfig()
	cfg.RunFullHorizon = true
	cfg.MaxSlots = 400
	o, err := NewOpen(OpenConfig{Cell: cfg, MaxSessions: 8}, openSessions(3), sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := o.AdvanceTo(5); err != nil {
		t.Fatal(err)
	}
	if err := o.depart(2); err != nil {
		t.Fatal(err)
	}
	if err := o.depart(0); err != nil {
		t.Fatal(err)
	}
	if err := o.depart(0); err == nil {
		t.Fatal("double depart accepted")
	}
	ss := openSessions(5)
	idx, err := o.Admit(ss[3])
	if err != nil {
		t.Fatal(err)
	}
	if idx != 0 {
		t.Fatalf("first admit after frees got slot %d, want 0", idx)
	}
	idx, err = o.Admit(ss[4])
	if err != nil {
		t.Fatal(err)
	}
	if idx != 2 {
		t.Fatalf("second admit after frees got slot %d, want 2", idx)
	}
	// Table did not grow: three slots serve five lifetime sessions.
	st := o.Stats()
	if st.TableLen != 3 || st.Admitted != 5 || st.Departed != 2 || st.InService != 3 {
		t.Fatalf("stats: %+v", st)
	}
	if _, err := o.AdvanceTo(cfg.MaxSlots); err != nil {
		t.Fatal(err)
	}
	if st := o.Stats(); st.Completed != 3 || st.InService != 0 {
		t.Fatalf("end stats: %+v", st)
	}
}

// A reused row starts from a fresh scheduler's state: under EMA the new
// session's virtual queue is empty, not the departed session's.
func TestOpenReusedRowStartsFresh(t *testing.T) {
	cfg := tinyConfig()
	cfg.RunFullHorizon = true
	ema, err := sched.NewEMA(sched.EMAConfig{V: 0.2, RRC: cfg.RRC})
	if err != nil {
		t.Fatal(err)
	}
	ss := openSessions(3)
	o, err := NewOpen(OpenConfig{Cell: cfg, MaxSessions: 8}, ss[:2], ema)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	for n := 1; ema.Queue(0) == 0; n++ {
		if n > 50 {
			t.Fatal("session 0's queue never moved")
		}
		if _, err := o.AdvanceTo(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := o.depart(0); err != nil {
		t.Fatal(err)
	}
	idx, err := o.Admit(ss[2])
	if err != nil {
		t.Fatal(err)
	}
	if idx != 0 {
		t.Fatalf("admit got row %d, want the freed row 0", idx)
	}
	if q := ema.Queue(0); q != 0 {
		t.Fatalf("reused row 0 starts with the departed session's queue %v", q)
	}
}

// Compaction moves each live session's scheduler state with it, and a row
// appended past the compacted table starts fresh although the scheduler
// still holds the state of the row's last occupant.
func TestOpenCompactionMovesRowState(t *testing.T) {
	cfg := tinyConfig()
	cfg.RunFullHorizon = true
	cfg.MaxSlots = 64
	ema, err := sched.NewEMA(sched.EMAConfig{V: 0.2, RRC: cfg.RRC})
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewOpen(OpenConfig{Cell: cfg, Unbounded: true, MaxSessions: 2 * compactMinTable}, nil, ema)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	ss := openSessions(compactMinTable)
	for _, s := range ss {
		s.Size = 1 << 20 // never completes within the script
		if _, err := o.Admit(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := o.AdvanceTo(30); err != nil {
		t.Fatal(err)
	}
	want := map[uint64]units.Seconds{}
	for i := range ss {
		if i%4 != 0 {
			if err := o.depart(i); err != nil {
				t.Fatal(err)
			}
			continue
		}
		ser, _ := o.Serial(i)
		want[ser] = ema.Queue(i)
	}
	// An advance to the current clock ticks nothing, then compacts.
	if _, err := o.AdvanceTo(o.Stats().Slot); err != nil {
		t.Fatal(err)
	}
	if st := o.Stats(); st.TableLen != len(want) {
		t.Fatalf("table length %d after churn, want %d compacted rows", st.TableLen, len(want))
	}
	for ser, q := range want {
		if row, _ := o.slotOf(-1, ser); ema.Queue(row) != q {
			t.Errorf("session %d moved to row %d with queue %v, had %v", ser, row, ema.Queue(row), q)
		}
	}
	idx, err := o.Admit(ss[1])
	if err != nil {
		t.Fatal(err)
	}
	if idx != len(want) || ema.Queue(idx) != 0 {
		t.Fatalf("appended row %d starts with queue %v, want row %d and an empty queue", idx, ema.Queue(idx), len(want))
	}
}

func TestOpenUnbounded(t *testing.T) {
	cfg := tinyConfig()
	cfg.RunFullHorizon = true
	cfg.MaxSlots = 32 // initial horizon only; the clock extends on demand
	o, err := NewOpen(OpenConfig{Cell: cfg, Unbounded: true, MaxSessions: 16}, openSessions(2), sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	ss := openSessions(8)
	for upto, k := 64, 2; upto <= 512; upto += 64 {
		done, err := o.AdvanceTo(upto)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			t.Fatalf("unbounded run reported done at slot %d", upto)
		}
		if o.Stats().Slot != upto {
			t.Fatalf("clock %d, want %d", o.Stats().Slot, upto)
		}
		// Keep churn flowing well past the initial horizon.
		if k < len(ss) {
			if _, err := o.Admit(ss[k]); err != nil {
				t.Fatal(err)
			}
			k++
		}
		// An unbounded run keeps no per-slot series.
		if got := len(o.eng.curRes.PerSlot); got != 0 {
			t.Fatalf("per-slot series holds %d entries at slot %d", got, upto)
		}
	}
	st := o.Stats()
	if st.Admitted != 8 || st.Completed != 8 || st.InService != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if q := o.RebufferQuantile(0.5); q < 0 {
		t.Fatalf("rebuffer p50 = %v", q)
	}
}

// TestOpenUnboundedRecordLevels: the record level of an unbounded churned
// run changes nothing its callers read — Stats(), the rebuffering
// quantiles and Finish()'s totals are bit-identical at RecordSlots and at
// RecordTotals — OnSlot sees every slot once, in order, also when one
// AdvanceTo crosses several metric windows, and Finish() carries no
// per-slot series at either level.
func TestOpenUnboundedRecordLevels(t *testing.T) {
	type outcome struct {
		st        OpenStats
		quantiles []uint64
		res       *Result
	}
	run := func(level RecordLevel) outcome {
		cfg := tinyConfig()
		cfg.RunFullHorizon = true
		cfg.MaxSlots = 32
		cfg.Record = level
		next := 0
		o, err := NewOpen(OpenConfig{
			Cell: cfg, Unbounded: true, MaxSessions: 16,
			OnSlot: func(n int, _ SlotTotals) {
				if n != next {
					t.Fatalf("OnSlot got slot %d, want %d", n, next)
				}
				next++
			},
		}, openSessions(2), sched.NewDefault())
		if err != nil {
			t.Fatal(err)
		}
		if err := o.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		ss := openSessions(8)
		var out outcome
		// Steps of 230 to 570 slots cross none, one or two metric windows.
		for k, upto := 2, 0; upto < 2000; k++ {
			upto += 230 + 170*(k%3)
			if _, err := o.AdvanceTo(upto); err != nil {
				t.Fatal(err)
			}
			if next != upto {
				t.Fatalf("OnSlot saw %d slots by slot %d", next, upto)
			}
			if k < len(ss) {
				if _, err := o.Admit(ss[k]); err != nil {
					t.Fatal(err)
				}
			}
			out.quantiles = append(out.quantiles,
				math.Float64bits(o.RebufferQuantile(0.5)), math.Float64bits(o.RebufferQuantile(0.99)))
		}
		out.st, out.res = o.Stats(), o.Finish()
		if out.res.PerSlot != nil {
			t.Fatalf("record level %d: Finish kept %d per-slot entries", level, len(out.res.PerSlot))
		}
		return out
	}
	want, got := run(RecordSlots), run(RecordTotals)
	if want.st.Completed == 0 {
		t.Fatal("test premise: no session completed")
	}
	if got.st != want.st || !slices.Equal(got.quantiles, want.quantiles) {
		t.Fatalf("RecordTotals %+v %v, RecordSlots %+v %v", got.st, got.quantiles, want.st, want.quantiles)
	}
	if !reflect.DeepEqual(got.res, want.res) {
		t.Fatal("Finish() differs between RecordTotals and RecordSlots")
	}
}

func TestOpenUnboundedRejectsUnboundedMemory(t *testing.T) {
	cfg := tinyConfig()
	cfg.RunFullHorizon = true

	// Memoizing signal traces grow with the horizon.
	walk, err := signal.NewRandomWalk(signal.RandomWalkConfig{Bounds: signal.DefaultBounds, Start: -80, StepStd: 3}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	ss := openSessions(1)
	ss[0].Signal = walk
	if _, err := NewOpen(OpenConfig{Cell: cfg, Unbounded: true, MaxSessions: 8}, ss, sched.NewDefault()); err == nil {
		t.Fatal("memoizing trace accepted in unbounded mode")
	}

	// VBR rate memos grow with the horizon too.
	ss = openSessions(1)
	ss[0].RateJitter = 30
	if _, err := NewOpen(OpenConfig{Cell: cfg, Unbounded: true, MaxSessions: 8}, ss, sched.NewDefault()); err == nil {
		t.Fatal("VBR session accepted in unbounded mode")
	}

	// Unbounded requires the full-horizon engine.
	cfg2 := tinyConfig()
	if _, err := NewOpen(OpenConfig{Cell: cfg2, Unbounded: true, MaxSessions: 8}, openSessions(1), sched.NewDefault()); err == nil {
		t.Fatal("unbounded mode accepted without RunFullHorizon")
	}
}

func TestOpenValidation(t *testing.T) {
	cfg := tinyConfig()
	// Empty initial population needs the full-horizon engine.
	if _, err := NewOpen(OpenConfig{Cell: cfg, MaxSessions: 8}, nil, sched.NewDefault()); err == nil {
		t.Fatal("empty population accepted without RunFullHorizon")
	}
	cfgFH := tinyConfig()
	cfgFH.RunFullHorizon = true
	o, err := NewOpen(OpenConfig{Cell: cfgFH, MaxSessions: 8}, nil, sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	// Admit/Depart before Start are errors.
	if _, err := o.Admit(openSessions(1)[0]); err == nil {
		t.Fatal("Admit before Start accepted")
	}
	if err := o.depart(0); err == nil {
		t.Fatal("Depart before Start accepted")
	}
	if err := o.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	// A run started empty serves arrivals.
	if _, err := o.Admit(openSessions(1)[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := o.AdvanceTo(cfgFH.MaxSlots); err != nil {
		t.Fatal(err)
	}
	if st := o.Stats(); st.Completed != 1 {
		t.Fatalf("stats: %+v", st)
	}

	// The link window needs a session cap to size its rows.
	if _, err := NewOpen(OpenConfig{Cell: cfgFH}, openSessions(1), sched.NewDefault()); err == nil {
		t.Fatal("open engine without a session cap accepted")
	}
	// Mid-run admission cannot honor per-user slot recording.
	cfgRec := tinyConfig()
	cfgRec.RunFullHorizon = true
	cfgRec.Record = RecordUserSlots
	o2, err := NewOpen(OpenConfig{Cell: cfgRec, MaxSessions: 8}, openSessions(1), sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	if err := o2.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := o2.Admit(openSessions(2)[1]); err == nil {
		t.Fatal("mid-run admit accepted with RecordUserSlots")
	}
}

// Departing a session that never started (still pending) must keep the
// engine's unfinished bookkeeping right: the run still ends.
func TestOpenDepartPending(t *testing.T) {
	cfg := tinyConfig()
	ss := openSessions(2)
	ss[1].StartSlot = 300 // far in the future
	o, err := NewOpen(OpenConfig{Cell: cfg, MaxSessions: 8}, ss, sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := o.AdvanceTo(5); err != nil {
		t.Fatal(err)
	}
	if err := o.depart(1); err != nil {
		t.Fatal(err)
	}
	done, err := o.AdvanceTo(cfg.MaxSlots)
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("run did not finish")
	}
	res := o.Finish()
	// Without RunFullHorizon the engine early-exits once user 0 finishes —
	// long before the departed user's phantom start slot.
	if res.Slots >= 300 {
		t.Fatalf("run served %d slots; departure did not release the pending user", res.Slots)
	}
	st := o.Stats()
	if st.Completed != 1 || st.Departed != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// The free-list's backing array must not creep: the old pop re-sliced
// the head, abandoning one slot of storage per reuse and forcing a
// reallocation every O(cap) churn cycles. The descending-sort/tail-pop
// discipline keeps the array anchored, so sustained admit/depart cycling
// holds its capacity flat after the first few cycles.
func TestOpenFreelistStableCapacity(t *testing.T) {
	cfg := tinyConfig()
	cfg.RunFullHorizon = true
	cfg.MaxSlots = 1 << 20
	initial := openSessions(4)
	for _, s := range initial {
		s.Size = 1 << 20 // never completes; only Depart frees slots
		s.StartSlot = 0
	}
	o, err := NewOpen(OpenConfig{Cell: cfg, Unbounded: true, MaxSessions: 8}, initial, sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	template := openSessions(1)[0]
	template.Size = 1 << 20
	warmCap := -1
	for cycle := 0; cycle < 300; cycle++ {
		// Free two slots, reuse them, tick a little.
		if err := o.depart(1); err != nil {
			t.Fatal(err)
		}
		if err := o.depart(3); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 2; k++ {
			if _, err := o.Admit(template); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := o.AdvanceTo(o.Stats().Slot + 2); err != nil {
			t.Fatal(err)
		}
		if cycle == 9 {
			warmCap = cap(o.freelist)
		}
		if cycle > 9 && cap(o.freelist) != warmCap {
			t.Fatalf("freelist capacity crept: %d after cycle %d, was %d after warmup", cap(o.freelist), cycle, warmCap)
		}
	}
	if st := o.Stats(); st.TableLen != 4 {
		t.Fatalf("table grew to %d slots under pure-reuse churn, want 4", st.TableLen)
	}
}

// Resident-set compaction: when churn empties most of the table in
// unbounded mode, live rows are packed down to an identity prefix. The
// move must be invisible — serial lookups keep working (DepartSerial
// included), the ledger conserves, and the tiled arm and the one on
// default blocks stay identical — while the table visibly shrinks.
func TestOpenCompactionChurn(t *testing.T) {
	run := func(tileSlots, workers int) (OpenStats, [2]float64, map[uint64]bool) {
		cfg := tinyConfig()
		cfg.RunFullHorizon = true
		cfg.MaxSlots = 64
		cfg.Workers = workers
		cfg.ShardSize = 16
		o, err := NewOpen(OpenConfig{
			Cell: cfg, Unbounded: true, MaxSessions: 256,
			TileSlots: tileSlots,
		}, nil, sched.NewDefault())
		if err != nil {
			t.Fatal(err)
		}
		if err := o.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		// Fill well past the compaction floor.
		sers := make([]uint64, 0, 200)
		big := openSessions(1)[0]
		big.Size = 1 << 20 // never completes within the script
		for i := 0; i < 200; i++ {
			idx, err := o.Admit(big)
			if err != nil {
				t.Fatal(err)
			}
			ser, ok := o.Serial(idx)
			if !ok {
				t.Fatalf("no serial for fresh admit %d", idx)
			}
			sers = append(sers, ser)
		}
		if _, err := o.AdvanceTo(40); err != nil {
			t.Fatal(err)
		}
		grown := o.Stats().TableLen
		if grown != 200 {
			t.Fatalf("table length %d before churn, want 200", grown)
		}
		// Depart 180 of 200: live fraction 10% < 50% triggers compaction
		// on the next AdvanceTo.
		for _, ser := range sers[:180] {
			if ok, err := o.DepartSerial(-1, ser); err != nil || !ok {
				t.Fatalf("depart serial %d: ok=%v err=%v", ser, ok, err)
			}
		}
		if _, err := o.AdvanceTo(80); err != nil {
			t.Fatal(err)
		}
		if got := o.Stats().TableLen; got != 20 {
			t.Fatalf("table not compacted: length %d, want 20", got)
		}
		// Every survivor is still addressable by serial, and the slot the
		// ledger maps it to agrees with Serial.
		alive := make(map[uint64]bool)
		for _, ser := range sers[180:] {
			idx, ok := o.slotOf(-1, ser)
			if !ok {
				t.Fatalf("serial %d lost by compaction", ser)
			}
			if got, ok := o.Serial(idx); !ok || got != ser {
				t.Fatalf("slot %d serial: got %d ok=%v, want %d", idx, got, ok, ser)
			}
			alive[ser] = true
		}
		// DepartSerial still lands after the move.
		if ok, err := o.DepartSerial(-1, sers[190]); err != nil || !ok {
			t.Fatalf("post-compaction DepartSerial: ok=%v err=%v", ok, err)
		}
		delete(alive, sers[190])
		// Admissions after compaction land in freed or appended slots and
		// the run keeps serving.
		if _, err := o.Admit(big); err != nil {
			t.Fatal(err)
		}
		if _, err := o.AdvanceTo(160); err != nil {
			t.Fatal(err)
		}
		st := o.Stats()
		if st.Admitted != st.Completed+st.Departed+st.InService {
			t.Fatalf("ledger leaks after compaction: %+v", st)
		}
		o.Finish()
		return st, [2]float64{o.RebufferQuantile(0.5), o.RebufferQuantile(0.99)}, alive
	}
	base, baseQ, _ := run(0, 1)
	for _, arm := range []struct{ tile, workers int }{{16, 1}, {16, 4}, {0, 4}} {
		st, q, _ := run(arm.tile, arm.workers)
		if st != base {
			t.Errorf("tile=%d workers=%d: stats %+v != %+v", arm.tile, arm.workers, st, base)
		}
		if q != baseQ {
			t.Errorf("tile=%d workers=%d: rebuffering quantiles %v != %v", arm.tile, arm.workers, q, baseQ)
		}
	}
}

// FuzzAdmitDepartSerial drives a random admit/depart/advance script
// against an unbounded, tiled, compacting OpenSim and asserts the
// serial ledger never tears: a departed or stale serial is a clean
// no-op, a live serial always resolves to a slot whose Serial agrees,
// and the session ledger conserves at every step. Every admitted session
// is distinct, and a twin on default 256-slot blocks takes the same script
// beside it: the two must agree on Stats() after every operation, so a row filled
// late, for the wrong slots, or with a previous occupant's values shows
// at the first completion it moves.
func FuzzAdmitDepartSerial(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 0, 2, 1, 3, 2})
	f.Add([]byte{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 256 {
			script = script[:256]
		}
		mk := func(tileSlots int) *OpenSim {
			cfg := tinyConfig()
			cfg.RunFullHorizon = true
			cfg.MaxSlots = 64
			o, err := NewOpen(OpenConfig{
				Cell: cfg, Unbounded: true, MaxSessions: 96,
				TileSlots: tileSlots,
			}, nil, sched.NewDefault())
			if err != nil {
				t.Fatal(err)
			}
			if err := o.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			return o
		}
		o, twin := mk(8), mk(0)
		defer o.Stop()
		// The script's length picks what the window hands to the background:
		// everything, windows but not a few late rows, nothing.
		o.eng.win.handoffMin = []int{handoffAlways, 12 * 8, handoffNever}[len(script)%3]
		// Sessions we admitted and have not departed, with the table slot
		// each was admitted to: DepartSerial is handed that slot, or no slot
		// for odd positions in the list, so both of slotOf's paths run.
		type admitted struct {
			ser uint64
			idx int
		}
		var live []admitted
		for k, op := range script {
			switch op % 4 {
			case 0, 1: // admit
				sess := distinctSession(t, k, 0)
				idx, err := o.Admit(sess)
				if twinIdx, twinErr := twin.Admit(sess); twinIdx != idx || (err == nil) != (twinErr == nil) {
					t.Fatalf("admit: tiled (%d, %v), twin (%d, %v)", idx, err, twinIdx, twinErr)
				}
				if errors.Is(err, ErrOverCapacity) {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				ser, ok := o.Serial(idx)
				if !ok {
					t.Fatalf("fresh admit at slot %d has no serial", idx)
				}
				live = append(live, admitted{ser, idx})
			case 2: // depart one of ours (may have completed naturally)
				if len(live) == 0 {
					continue
				}
				k := int(op) % len(live)
				ser, id := live[k].ser, live[k].idx
				if k%2 == 1 {
					id = -1
				}
				did, err := o.DepartSerial(id, ser)
				if err != nil {
					t.Fatal(err)
				}
				if twinDid, err := twin.DepartSerial(id, ser); err != nil || twinDid != did {
					t.Fatalf("depart serial %d: tiled %v, twin %v (%v)", ser, did, twinDid, err)
				}
				// Departed either way now (by us or by natural completion):
				// no slot holds the serial any more.
				for i := 0; i < o.Stats().TableLen; i++ {
					if got, ok := o.Serial(i); ok && got == ser {
						t.Fatalf("serial %d still in slot %d after depart", ser, i)
					}
				}
				live = append(live[:k], live[k+1:]...)
			case 3: // advance (reaps, rotates, maybe compacts)
				upto := o.Stats().Slot + int(op%32) + 1
				if _, err := o.AdvanceTo(upto); err != nil {
					t.Fatal(err)
				}
				if _, err := twin.AdvanceTo(upto); err != nil {
					t.Fatal(err)
				}
			}
			// Ledger conservation and serial/slot agreement, every step.
			st := o.Stats()
			if st.Admitted != st.Completed+st.Departed+st.InService {
				t.Fatalf("ledger leaks: %+v", st)
			}
			if twinSt := twin.Stats(); st != twinSt {
				t.Fatalf("after op %d (%d): tiled %+v, twin %+v", k, op%4, st, twinSt)
			}
			// Once a lookup has built the serial index (at whichever step a
			// DepartSerial first missed), it maps exactly the resident
			// sessions' serials to their slots.
			if o.bySerial != nil {
				resident := 0
				for i := 0; i < st.TableLen; i++ {
					if ser, ok := o.Serial(i); ok {
						resident++
						if idx, found := o.slotOf(-1, ser); !found || idx != i {
							t.Fatalf("Serial(%d)=%d but slotOf resolves it to %d (found %v)", i, ser, idx, found)
						}
					}
				}
				if len(o.bySerial) != resident {
					t.Fatalf("serial index holds %d entries for %d resident sessions", len(o.bySerial), resident)
				}
			}
		}
		o.Finish()
		twin.Finish()
		if st := o.Stats(); st.InService != 0 || st != twin.Stats() {
			t.Fatalf("after Finish: tiled %+v, twin %+v", st, twin.Stats())
		}
	})
}
