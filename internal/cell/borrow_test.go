package cell

import (
	"context"
	"math"
	"os"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"jointstream/internal/pool"
	"jointstream/internal/sched"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// TestMain poisons every block a window borrows for the whole package:
// NaN in both columns. An idle block holds another site's rows and a fresh one zeros; with the
// poison, a result that read a row its window's fill did not write would
// move, so every byte-identity suite here also proves no result does.
func TestMain(m *testing.M) {
	borrowHook = poison
	os.Exit(m.Run())
}

func poison(c *linkCols) {
	nan := math.NaN()
	for k := range c.sig {
		c.sig[k] = units.DBm(nan)
	}
	for k := range c.rate {
		c.rate[k] = units.KBps(nan)
	}
}

// TestLockstepFleetParksBlocks steps a fleet of small in-place sites —
// bounded open cells shaped like deploy's closed sites — through epochs of
// two spans on every core, as deploy's epoch loop does. Between epochs no
// running site holds a block, neither idle store holds more than GOMAXPROCS+1
// entries, and each site's Result equals its one-shot closed run.
func TestLockstepFleetParksBlocks(t *testing.T) {
	const sites, users, tile = 6, 8, 16
	sessions := tiledWorkload(t, users)
	cfg := tiledConfig()
	cfg.LinkTileSlots, cfg.Workers, cfg.RunFullHorizon = tile, 1, true
	want := runForced(t, cfg, sessions, sched.NewDefault(), handoffNever)

	sims := make([]*OpenSim, sites)
	for k := range sims {
		// Each site's own table: an open cell frees its rows in the slice.
		o, err := NewOpen(OpenConfig{Cell: cfg, MaxSessions: users, TileSlots: (tile + 1) / 2}, slices.Clone(sessions), sched.NewDefault())
		if err != nil {
			t.Fatal(err)
		}
		if err := o.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		sims[k] = o
	}
	bound := runtime.GOMAXPROCS(0) + 1
	done := make([]bool, sites) // every site has the same horizon
	for upto := tile; !done[0]; upto += tile {
		err := pool.ForEachN(context.Background(), 0, sites, func(_ context.Context, k int) (err error) {
			done[k], err = sims[k].AdvanceTo(upto)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		for k, o := range sims {
			if !done[k] && o.eng.win.cur.sig != nil {
				t.Fatalf("slot %d: site %d holds its block between epochs", upto, k)
			}
		}
		if n, m := len(idleBlocks.items), len(idleScratch.items); n > bound || m > bound {
			t.Fatalf("slot %d: idle stores hold %d blocks and %d scratches, bound %d", upto, n, m, bound)
		}
	}
	for k, o := range sims {
		if got := o.Finish(); !reflect.DeepEqual(want, got) {
			t.Fatalf("site %d: lockstep Result differs from the one-shot run", k)
		}
	}
}

// TestIdleStoreKeepsLargest: a full store drops its smallest entry, so
// the small fills of one run cannot starve the big ones of the next — a
// store that dropped what came last kept three 8-row scratches a paper
// sweep left and handed a 100 000-user cell none it could use, and every
// one of its block fills allocated a fresh 66 KB scratch. A request gets
// the smallest entry that covers it (best-fit), and stop keeps no
// handed-off window's blocks (stop).
func TestIdleStoreKeepsLargest(t *testing.T) {
	var l idleStore[*fillScratch]
	bound := runtime.GOMAXPROCS(0) + 1
	scratch := func(width int) *fillScratch { return &fillScratch{sig: make([][fillSlots]units.DBm, width)} }
	for k := 0; k < bound; k++ {
		l.put(scratch(8))
	}
	l.put(scratch(fillUsers))
	if len(l.items) != bound {
		t.Fatalf("store holds %d entries, bound %d", len(l.items), bound)
	}
	if sc, ok := l.take(fillUsers, 0); !ok || len(sc.sig) != fillUsers {
		t.Fatal("a full store of small entries dropped the big one")
	}
	if _, ok := l.take(9, 0); ok {
		t.Fatal("took an entry that does not cover the request")
	}
	if sc, ok := l.take(4, 0); !ok || len(sc.sig) != 8 {
		t.Fatal("no covering entry handed out")
	}
	t.Run("best-fit", idleStoreBestFit)
	t.Run("stop", stopKeepsOnlySmallBlocks)
}

// idleStoreBestFit: a request gets the smallest entry that covers both its
// signals and its rate rows, so a 40-row window's block never takes a
// 100 000-row cell's, and a window with a rate row per slot never takes a
// block it would have to give a new rate array.
func idleStoreBestFit(t *testing.T) {
	var l idleStore[linkCols]
	const slots = 32
	for _, rows := range []int{100_000, 40, 300, 8} {
		l.items = append(l.items, newLinkCols(rows, slots, true)) // put would drop all but GOMAXPROCS+1
	}
	l.items = append(l.items, newLinkCols(300, slots, false))
	if c, ok := l.take(40*slots, 40*slots); !ok || cap(c.rate) != 300*slots {
		t.Fatal("a request for a rate row per slot got no block with room for them")
	}
	for _, want := range []int{40, 300, 100_000} {
		c, ok := l.take(40*slots, 40)
		if !ok || cap(c.sig) != want*slots || cap(c.rate) != want {
			t.Fatalf("a 40-row request got an entry of %d signals and %d rates, want the %d-row one", cap(c.sig), cap(c.rate), want)
		}
	}
	if _, ok := l.take(40*slots, 40); ok {
		t.Fatal("took an entry that does not cover the request")
	}
}

// stopKeepsOnlySmallBlocks: stop parks an in-place window's block, which
// the next small window borrows, and lets a handed-off window's two go —
// idleBlocks keeps its entries for the life of the process, so a big
// run's blocks parked there would stay with it.
func stopKeepsOnlySmallBlocks(t *testing.T) {
	const rows, span = 300, 16
	wl := fillWorkload(t, rows, 0, false)
	workload.PrewarmAll(1, wl, 2*span)
	parked := func(c linkCols) bool {
		idleBlocks.mu.Lock()
		defer idleBlocks.mu.Unlock()
		return slices.ContainsFunc(idleBlocks.items, func(x linkCols) bool { return &x.sig[:1][0] == &c.sig[0] })
	}
	for _, handoff := range []int{handoffNever, handoffAlways} {
		w := newLinkWindow(1, span, rows, 2*span, constRate(wl), wl)
		w.handoffMin = handoff
		w.ensure(0)
		w.syncFill()
		cur, next := w.cur.linkCols, w.next.linkCols
		w.stop()
		if w.cur.sig != nil || w.next.sig != nil {
			t.Fatalf("handoffMin %d: the window holds a block after stop", handoff)
		}
		if handoff == handoffAlways && (parked(cur) || parked(next)) {
			t.Fatal("stop parked a handed-off window's block")
		}
		if handoff == handoffNever && !parked(cur) {
			t.Fatal("stop did not park an in-place window's block")
		}
	}
}
