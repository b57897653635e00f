package cell

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"jointstream/internal/rng"
	"jointstream/internal/sched"
	"jointstream/internal/signal"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// This file tests the link window's pipeline under mutation (DESIGN.md,
// "cell · link window"): that the first admission ends the window's
// background fills, and that every row a tick reads holds its current
// occupant's values for that slot. The tables here are small, so each arm
// forces the window's hand-off threshold: the size alone would keep every
// fill in place.

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

// TestOpenFirstAdmitEndsHandoff: an unbounded cell hands its second
// window to the background from its first tick, so a fill is in flight
// when the first Admit comes. That Admit ends the hand-off — the fill is
// waited out and the spare block let go — and at every AdvanceTo boundary
// after it, whatever the churn, no fill is in flight and the window holds
// no spare. Both arms (8-slot and default 256-slot blocks) start handing
// off, and their runs are equal.
func TestOpenFirstAdmitEndsHandoff(t *testing.T) {
	const window = 8
	script := func(tile int) openOutcome {
		initial := make([]*workload.Session, 6)
		for i := range initial {
			initial[i] = distinctSession(t, i, 0)
			initial[i].ID = i
		}
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
		w := o.eng.win
		w.handoffMin = handoffAlways
		if err := o.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		if _, err := o.AdvanceTo(3); err != nil {
			t.Fatal(err)
		}
		if !w.inflight || w.next.sig == nil {
			t.Fatal("script error: no fill in flight before the first Admit")
		}
		handingOff := func(when string) {
			t.Helper()
			if w.inflight || w.next.sig != nil || w.next.base >= 0 || w.handoffMin != handoffNever {
				t.Fatalf("tile %d, %s: fill in flight %v, spare of %d rows for slot %d, hand-off from %d row-slots",
					tile, when, w.inflight, len(w.next.sig), w.next.base, w.handoffMin)
			}
		}
		src := rng.New(7)
		var live []uint64
		k := len(initial)
		for clock := 3; clock < 200; clock += 1 + src.Intn(2*window) {
			for n := src.Intn(4); n > 0; n-- {
				idx, err := o.Admit(distinctSession(t, k, clock+src.Intn(2*window)))
				k++
				if err != nil {
					t.Fatal(err)
				}
				ser, _ := o.Serial(idx)
				live = append(live, ser)
				handingOff(fmt.Sprintf("after Admit at slot %d", clock))
			}
			if len(live) > 0 && src.Bool(0.4) {
				j := src.Intn(len(live))
				if _, err := o.DepartSerial(-1, live[j]); err != nil {
					t.Fatal(err)
				}
				live = append(live[:j], live[j+1:]...)
			}
			if _, err := o.AdvanceTo(clock); err != nil {
				t.Fatal(err)
			}
			if k > len(initial) {
				handingOff(fmt.Sprintf("at slot %d", clock))
			}
		}
		return finishOpen(o)
	}
	script(window).mustEqual(t, script(0))
}

// churnScript drives one open run through a fixed script of admissions,
// departures and completions at every AdvanceTo boundary, every admitted
// session distinct. Within a boundary it departs, admits onto the freed
// rows, and now and then departs what it just admitted and admits again,
// so rows change occupant up to three times between two ticks; two thirds
// through, most sessions leave at once and the table compacts. The script
// depends on nothing but stride, so arms of one stride are comparable.
// handoff is the link window's forced hand-off threshold in rows × slots,
// which the script's first admission, before the first tick, ends.
func churnScript(t *testing.T, tile, workers, stride, handoff int) openOutcome {
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
// the same stride on default 256-slot blocks, with the hand-off threshold
// forced to every fill, whole windows only, or none before the first
// admission ends it. Exact equality.
func TestOpenChurnDistinctRows(t *testing.T) {
	for _, stride := range []int{1, 5, 40} {
		want := churnScript(t, 0, 1, stride, 0)
		for _, tile := range []int{1, 3, 8, 32} {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("stride%d/tile%d/w%d", stride, tile, workers), func(t *testing.T) {
					for _, handoff := range []int{handoffAlways, 12 * tile, handoffNever} {
						churnScript(t, tile, workers, stride, handoff).mustEqual(t, want)
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
// handed off or done in place. The churn script admits before its first
// tick, which ends any hand-off, so every arm reads the in-place count.
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
	for _, handoff := range []int{handoffAlways, 12 * 8, handoffNever} {
		before := RowsFilled()
		churnScript(t, 8, 4, 5, handoff)
		if got, want := RowsFilled()-before, int64(25873); got != want {
			t.Errorf("churn script, hand-off from %d row-slots: %d row-slots filled, want %d", handoff, got, want)
		}
	}
}
