package cell

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// This file is the engine's one link-window provider (DESIGN.md §13): a
// sliding window of future link rows — each user's signal and required
// rate per slot — that attachSlotColumns aliases zero-copy into the slot
// view. Every row comes out of the one fill (linkfill.go), so every run is
// bit-identical to RunReference. newSim builds one for every run: open
// (rows admitted and dropped mid-run, an unbounded table compacted now and
// then), closed (every row resident from the start, dropped as dropRetired
// retires its user), or over a compiled table (tableWindow: the table's
// blocks, filled once for every reader; the window never fills a row).

// linkBlock is one filled window: a slot-major block of link rows
// covering span slots × the table's rows.
type linkBlock struct {
	base int // first slot the block covers; -1 = not filled
	linkCols
}

// linkWindow is a ring of two blocks whose memory does not depend on the
// horizon. While the resident block ticks, the window after it fills into
// the spare block on a background goroutine, so the slot that crosses a
// window boundary pays a pointer swap, not a fill. The engine's
// pinPrevColumns copies the evicted slot's aliased rate row before attach
// triggers the swap, which is what makes handing the outgoing block to
// the next fill safe; a column view is valid until the next swap.
//
// The session table keeps changing while a window fills, and neither side
// waits for the other. The background fill reads the row source in place,
// over a row list nobody writes until it lands, into the spare block, its
// own while it runs. Rows admitted since the kick go on the late list — a
// row that changed hands among them, whichever occupant the fill read —
// and are the next fill into the same block; rows dropped since keep stale
// values nobody reads. A dropped row's session is not overwritten while the
// fill may read it: OpenSim holds a recycled clone until the fill in
// flight when its session ended has landed. Only the swap
// (ensure), compaction and stop wait for a fill, working beside it.
//
// New allocates no block: the first ensure borrows the resident one from
// idleBlocks, the first fill big enough to hand off (handoff) the spare. A
// window whose fills are all small starts no goroutine and parks its one
// block when an Advance ends past it or the run stops. A window that
// handed off lets both go at stop: blocks of that size are one run's, and
// idleBlocks keeps what it holds for the life of the process. Each
// handed-off fill runs on its own goroutine, which ends with it, so none
// outlives stop.
type linkWindow struct {
	span int // slots per block
	// table is the shared table a table window reads its blocks from; nil
	// for a window that fills its own. prefetches counts the table's
	// background fills this window started, which stop waits out.
	table      *LinkTable
	prefetches sync.WaitGroup
	// horizon clamps fills of a bounded run: its sessions may share
	// memoized traces prewarmed over [0, MaxSlots) only, and growing a
	// memo under a concurrent reader would race. -1 = unbounded (vetSession
	// enforces stateless traces there).
	horizon int
	// fill runs the handed-off fills, and the foreground's whole-window
	// fill while none is in flight. patch fills admitted rows into windows
	// that exist and runs beside a background fill, so it is a second
	// filler — a filler holds the arguments of its running fill.
	fill, patch *linkFiller
	// handoffMin is the size, in rows × slots, from which a fill is handed
	// to a background goroutine: handoffRowSlots until stop puts it out of
	// reach (tests move it to force either side).
	handoffMin int

	// cur is the resident block, next the spare; each holds no storage (nil
	// columns) until it is borrowed and once it is parked. A table window
	// has no spare.
	cur, next  *linkBlock
	sharedRate bool // one rate row for all slots, until widenRate

	// src is the row source: the session resident in each table row, nil
	// when the row is empty or its user will not be read again. rows is
	// the ascending list of occupied rows a window fill covers; only ensure
	// reads it, and brings it up to date first. fresh collects the rows
	// admitted since the last flush (admission order, duplicates possible),
	// queued the rows flushed since ensure last caught up, and holes says
	// rows dropped since are still listed.
	src    rowSource
	rows   []int
	fresh  []int
	queued []int
	holes  bool
	// late lists the rows flushed since the spare block's latest fill was
	// kicked: the block lacks them. lateFill is the row list of a fill of
	// late rows, copied out of late, which goes on collecting meanwhile.
	late     []int
	lateFill []int

	// Hand-off state. runFill (bound once as bgFn, so a kick allocates no
	// closure) sets landed and then signals done; the foreground polls
	// landed (no blocking, no select) and receives from done only where it
	// has to wait. inflight tracks an outstanding fill, nextReady a spare
	// block whose window fill is over. kicks counts the fills handed off.
	bgFn      func()
	done      chan struct{}
	landed    atomic.Bool
	inflight  bool
	nextReady bool
	kicks     uint64
}

// handoffRowSlots is the fill size, in rows × slots, from which a fill is
// handed to a background goroutine instead of being done in place; late
// rows count the same as block rows (BenchmarkLinkPatch reads 0.7 times
// BenchmarkLinkRefill's ns/row). Handing off costs a goroutine, a wait at
// the swap if the fill is still in flight, and a spare block: a 40-user
// fleet cell's 32-slot block (1 280 row-slots) fills in place, cell_dense's
// 100 000-user blocks are three orders of magnitude above the line
// (DESIGN.md §13).
const handoffRowSlots = 1536

// newLinkWindow builds a window of span-slot blocks over a table of up to
// rowCap rows, the first len(sessions) of them occupied. horizon is
// the last slot + 1 a fill may touch (-1 = none), and sharedRate gives the
// blocks one rate row for all slots, until widenRate. workers bounds a
// fill's fan-out. Nothing is borrowed or filled until the first ensure.
func newLinkWindow(workers, span, rowCap, horizon int, sharedRate bool, sessions []*workload.Session) *linkWindow {
	w := &linkWindow{
		span: span, horizon: horizon,
		fill: newLinkFiller(workers, rowCap), patch: newLinkFiller(workers, rowCap),
		handoffMin: handoffRowSlots,
		cur:        &linkBlock{base: -1},
		next:       &linkBlock{base: -1},
		sharedRate: sharedRate,
		src:        newRowSource(rowCap, sessions),
		rows:       make([]int, len(sessions), rowCap),
		done:       make(chan struct{}, 1),
	}
	w.bgFn = w.runFill
	// The initial population occupies an identity prefix.
	for i := range w.rows {
		w.rows[i] = i
	}
	return w
}

// tableWindow is the window over a compiled table: its resident block is
// the table's block covering the slot, and moving on to the next one is a
// lookup in the table, which fills the block if no reader has yet and
// starts filling the one after it in the background. The window never
// fills or writes a row itself — which is what lets any number of
// simulators hold one over the same shared LinkTable.
func tableWindow(t *LinkTable) *linkWindow {
	return &linkWindow{span: tableBlockSlots, table: t, cur: &linkBlock{base: -1}}
}

// willEvict reports whether making slot n resident swaps or refills the
// resident block, invalidating every column view handed out before. The
// engine asks before the fused pass, to know when the pinned previous-slot
// columns must be copied instead of aliased.
func (w *linkWindow) willEvict(n int) bool {
	return w.cur.base < 0 || n < w.cur.base || n >= w.cur.base+w.span
}

// ensure makes the resident window cover slot n. Windows are aligned to
// multiples of the span so boundaries are stable. When the window was
// handed off ahead the crossing is a pointer swap, and the evicted block
// at once becomes the destination of the window after; otherwise the
// block is filled here, in place. This is the one place the tick may wait
// for a background fill — over a table, for the fill of a block another
// reader reached first.
func (w *linkWindow) ensure(n int) {
	if !w.willEvict(n) {
		return
	}
	if w.table != nil {
		w.cur = w.table.block(n)
		w.table.prefetch(n/tableBlockSlots+1, &w.prefetches)
		return
	}
	base := n - n%w.span
	w.syncFill()
	// The occupied list catches up here, just before a fill reads it: rows
	// dropped since leave in one filter pass, rows flushed since join in one
	// backward merge.
	add := w.occupied(w.queued)
	w.dropHoles(add)
	w.rows, w.queued = mergeSorted(w.rows, add), w.queued[:0]
	if w.nextReady && w.next.base == base {
		// What the background fill was not given in time is filled here.
		w.patchNext(w.occupied(w.late))
		w.cur, w.next = w.next, w.cur
	} else {
		// Filled here and now from the occupied rows: nothing is missing.
		if w.cur.sig == nil {
			w.cur.borrow(len(w.src), w.span, w.sharedRate)
		}
		w.cur.base = base
		w.fill.fill(&w.cur.linkCols, w.src, w.rows, 0, 0, base, w.windowEnd(base))
	}
	w.late = w.late[:0]
	w.nextReady = false
	w.prefetch(base + w.span)
}

// handoff reports whether a fill of rows × slots goes to a background
// goroutine: not one small enough that doing it in place costs the tick
// no more than handing it off would, and none after stop.
func (w *linkWindow) handoff(rows, slots int) bool { return rows*slots >= w.handoffMin }

// prefetch starts filling the window that begins at base into the spare
// block, in the background, borrowing the block first if the window holds
// none. Skipped past the bounded horizon, after stop, and for a window too
// small to hand off: that one is filled in place when the clock reaches
// it.
func (w *linkWindow) prefetch(base int) {
	if w.horizon >= 0 && base >= w.horizon || !w.handoff(len(w.rows), w.windowEnd(base)-base) {
		return
	}
	if w.next.sig == nil {
		w.next.borrow(len(w.src), w.span, w.sharedRate)
	}
	w.next.base = base
	w.kickFill(w.rows)
}

// kickFill hands a background goroutine a fill of the given rows of the
// spare block, read from the row source in place. The table is free to
// change the moment this returns; rows is not, until the fill lands.
func (w *linkWindow) kickFill(rows []int) {
	b := w.next
	w.fill.start(&b.linkCols, w.src, rows, 0, 0, b.base, w.windowEnd(b.base))
	w.landed.Store(false)
	w.inflight = true
	w.kicks++
	go w.bgFn()
}

// runFill is one background fill's goroutine: it runs the fill kickFill
// set up, flags it landed, signals done and ends. The receive from done is
// the happens-before edge back to the foreground; done has room for the
// one fill that can be in flight, so the send never blocks.
func (w *linkWindow) runFill() {
	w.fill.run()
	w.landed.Store(true)
	w.done <- struct{}{}
}

// syncFill finishes an outstanding background fill. The foreground does
// not sit it out: it claims blocks beside the fill's own goroutines until
// none is left, then waits for their last.
func (w *linkWindow) syncFill() {
	if !w.inflight {
		return
	}
	w.fill.drain(0) // the shard index is not used
	<-w.done
	w.inflight = false
	w.nextReady = true
}

// pollFill lands a background fill that has finished, without waiting for
// one that has not, and sees to the rows that became late while it ran:
// they are the next fill into the same block, handed off or done here.
func (w *linkWindow) pollFill() {
	if w.inflight && w.landed.Load() {
		w.syncFill()
	}
	if !w.nextReady || w.inflight || len(w.late) == 0 {
		return
	}
	late := w.occupied(w.late)
	if b := w.next; w.handoff(len(late), w.windowEnd(b.base)-b.base) {
		w.lateFill = append(w.lateFill[:0], late...)
		w.kickFill(w.lateFill)
	} else {
		w.patchNext(late)
	}
	w.late = w.late[:0]
}

// patchNext fills the given rows into every slot of the spare block, which
// no fill is running on.
func (w *linkWindow) patchNext(rows []int) {
	b := w.next
	w.patch.fill(&b.linkCols, w.src, rows, 0, 0, b.base, w.windowEnd(b.base))
}

// parks reports whether the window holds no spare block and slot n is
// not in its resident one: an Advance ending before n parks.
func (w *linkWindow) parks(n int) bool {
	return w.table == nil && w.next.sig == nil && w.willEvict(n)
}

// park gives the resident block back to idleBlocks when parks(n),
// invalidating every column view handed out; the next ensure borrows and
// refills.
func (w *linkWindow) park(n int) {
	if w.parks(n) && w.cur.sig != nil {
		idleBlocks.put(w.cur.linkCols)
		w.cur.linkCols, w.cur.base = linkCols{}, -1
	}
}

// stop waits out a background fill, hands off no more, parks an in-place
// window's block and lets a handed-off window's two go (idempotent):
// further window crossings borrow and fill in place. The engine calls it
// wherever a run ends — done, failed or cancelled — so no goroutine
// outlives it and no block stays with a finished run.
func (w *linkWindow) stop() {
	w.prefetches.Wait()
	w.syncFill()
	w.handoffMin = math.MaxInt
	if w.table == nil {
		w.park(-1)
		w.cur.linkCols, w.cur.base = linkCols{}, -1
		w.next.linkCols, w.next.base = linkCols{}, -1
		w.nextReady = false
	}
}

// windowEnd is the slot after the last one a block based at base covers.
func (w *linkWindow) windowEnd(base int) int {
	if hi := base + w.span; w.horizon < 0 || hi <= w.horizon {
		return hi
	}
	return w.horizon
}

// occupied sorts rows in place and returns them without duplicates and
// without rows whose table slot is empty.
func (w *linkWindow) occupied(rows []int) []int {
	slices.Sort(rows)
	k, prev := 0, -1
	for _, i := range rows {
		if i != prev && w.src[i].Load() != nil {
			rows[k] = i
			k++
		}
		prev = i
	}
	return rows[:k]
}

// widenRate gives the blocks a rate row per slot, each a copy of the
// shared one, before the first VBR session is admitted; a background fill
// writing the spare block's row is waited out first. A block borrowed
// later takes the wide shape.
func (w *linkWindow) widenRate() {
	if !w.sharedRate {
		return
	}
	w.sharedRate = false
	w.syncFill()
	w.cur.widenRate() // a block not borrowed yet has nothing to widen
	w.next.widenRate()
}

// admitRow registers a newly admitted session in table row i. Its rows
// are filled by the next flush.
func (w *linkWindow) admitRow(i int, sess *workload.Session) {
	w.src[i].Store(sess)
	w.fresh = append(w.fresh, i)
}

// dropRow takes row i out of every later fill: its session has left, or
// the engine retired its user and will not read the row again. What the
// blocks hold of it goes stale. A compiled table has no row source and
// nothing to fill.
func (w *linkWindow) dropRow(i int) {
	if w.src != nil {
		w.src[i].Store(nil)
		w.holes = true
	}
}

// dropHoles takes the rows dropped since the last call off the occupied
// list, and with them the rows of add (ascending): a row that was dropped
// and admitted again is both listed and in add, and the caller's merge
// puts it back.
func (w *linkWindow) dropHoles(add []int) {
	if !w.holes {
		return
	}
	k, a := 0, 0
	for _, i := range w.rows {
		for a < len(add) && add[a] < i {
			a++
		}
		if w.src[i].Load() != nil && (a == len(add) || add[a] != i) {
			w.rows[k] = i
			k++
		}
	}
	w.rows = w.rows[:k]
	w.holes = false
}

// flush brings the window up to date with the session table before the
// engine advances from slot clock. The rows admitted since the last call
// are filled into the resident window in one fill, from clock on (a fresh
// row is never read at a slot that already ticked); for the prefetched
// window they are late, and go to a fill of their own now if none is in
// flight, when it lands otherwise. They join the occupied list when ensure
// next fills a window, so a flush costs what it admits, not the table.
func (w *linkWindow) flush(clock int) {
	add := w.occupied(w.fresh)
	if len(add) > 0 {
		if !w.willEvict(clock) {
			b := w.cur
			w.patch.fill(&b.linkCols, w.src, add, 0, clock-b.base, clock, w.windowEnd(b.base))
		}
		if w.inflight || w.nextReady {
			w.late = append(w.late, add...)
		}
		if w.queued = append(w.queued, add...); len(w.queued) > len(w.src) {
			w.queued = w.occupied(w.queued) // rows admitted again and again, no fill between
		}
	}
	w.fresh = w.fresh[:0]
	w.pollFill()
}

// compactRows follows the engine's resident-set compaction: sessions is
// the compacted table, an identity prefix of occupied rows. Row indices
// moved, so both blocks and every pending row list are invalidated and
// the next ensure refills from scratch.
func (w *linkWindow) compactRows(sessions []*workload.Session) {
	w.syncFill()
	w.nextReady = false
	w.cur.base, w.next.base = -1, -1
	w.fresh, w.queued, w.late, w.holes = w.fresh[:0], w.queued[:0], w.late[:0], false
	w.rows = w.rows[:0]
	for i := range w.src {
		var sess *workload.Session
		if i < len(sessions) {
			sess = sessions[i]
			w.rows = append(w.rows, i)
		}
		w.src[i].Store(sess)
	}
}

// slotColumns returns resident slot n's first users signals and rates as
// zero-copy views. The engine aliases them into the sched.Columns slot
// view; they must never be written through, and the next swap invalidates
// them.
func (w *linkWindow) slotColumns(n, users int) ([]units.DBm, []units.KBps) {
	return w.cur.slot(n-w.cur.base, users)
}
