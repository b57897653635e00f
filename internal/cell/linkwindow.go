package cell

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// This file is the engine's one link-window provider (DESIGN.md, "cell ·
// link window"): a sliding window of future link rows — each user's
// signal and required rate per slot — that attachSlotColumns aliases
// zero-copy into the slot view, and from whose signals the tick derives
// v(sig), P(sig) and the Eq. (1) limit. Every row comes out of the one
// fill (linkfill.go), so a windowed run is bit-identical to the analytic
// path. The closed engine with Config.LinkTileSlots, the
// open engine with OpenConfig.TileSlots and a compiled LinkTable are the
// same object, which newSim builds for either engine:
//
//   - open: rows are admitted (admitRow) and dropped (dropRow) while the
//     run goes on, and an unbounded table is compacted now and then;
//   - closed (a closed fleet site too): every row is resident from the
//     start, none is admitted, and rows leave as dropRetired takes their
//     users off the live list;
//   - a compiled table (tableWindow): its resident block is the table's
//     block covering the slot, which the table fills once for every reader
//     (link.go); the window itself never fills or writes a row.

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
// waits for the other. The background fill reads nothing the foreground
// writes: it is handed a private copy of its row list and of those rows'
// sessions (kickFill), and the spare block is its own while it runs. The
// foreground only records what that copy lacks — rows admitted since go
// on the late list — and when the fill has landed the late rows are the
// next fill into the same block; rows dropped since keep stale values
// nobody reads. Only the swap (ensure), compaction and stop wait for a
// fill, and they work beside it while they do.
//
// Whether a fill is handed off at all is decided per fill from its size
// (handoff): a small one is done where it is needed, and a window whose
// fills are all small never allocates a spare block or starts a goroutine,
// nor keeps its one block: it borrows the storage from idleBlocks for a fill
// and parks it when an Advance ends past it (or the run ends).
// Each handed-off fill runs on its own goroutine, which ends with it, so
// none outlives the window by more than the fill it is running — and not
// at all once stop has returned.
type linkWindow struct {
	span int // slots per block
	// table is the shared table a table window reads its blocks from; nil
	// for a window that fills its own. prefetches counts the table's
	// background fills this window started, which stop waits out.
	table      *LinkTable
	prefetches sync.WaitGroup
	// horizon clamps fills of a bounded run: slots at or past it are never
	// filled, because bounded sessions may carry memoized signal traces
	// that only cover [0, MaxSlots), clones of one template share them, and
	// growing a memo under a concurrent reader would race. Every session is
	// prewarmed to the horizon before a fill can see it. -1 = unbounded
	// (the open engine's vetSession enforces stateless traces, so any slot
	// is safe to fill anywhere).
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

	cur *linkBlock // no storage (nil columns) while parked
	// next is the spare block, allocated with the snapshot storage below
	// (spare) once a fill is big enough to be handed off: up front when the
	// initial population's window already is, by the first such fill
	// otherwise. From then on cur keeps its storage.
	next       *linkBlock
	sharedRate bool // one rate row for all slots, until widenRate

	// src is the row source: src[i] is the session resident in table row i,
	// nil when the row is empty or its user will not be read again. rows is
	// the ascending list of occupied rows a window fill covers; only ensure
	// reads it, and brings it up to date first. fresh collects the rows
	// admitted since the last flush (admission order, duplicates possible),
	// queued the rows flushed since ensure last caught up, and holes says
	// rows dropped since are still listed.
	src    []*workload.Session
	rows   []int
	fresh  []int
	queued []int
	holes  bool
	// late lists the rows flushed since the snapshot of the spare block's
	// latest fill was taken: the block still lacks them.
	late []int

	// The in-flight fill's inputs, written by kickFill and then left alone
	// until the fill is over: the row list, and by value what a fill reads
	// of each listed row's session. snapPtr[i] = &snap[i] is the view the
	// filler indexes by row. A row's copy stays good until the row changes
	// hands, so a window fill refreshes only the rows admitted since the
	// last one (changed), or all of them (snapAll) after a compaction moved
	// the rows or a window went by without a handed-off fill.
	snapRows []int
	snap     []workload.Session
	snapPtr  []*workload.Session
	changed  []int
	snapAll  bool

	// Hand-off state. runFill (bound once as bgFn, so a kick allocates no
	// closure) sets landed and then signals done; the foreground polls
	// landed (no blocking, no select) and receives from done only where it
	// has to wait. inflight tracks an outstanding fill, nextReady a spare
	// block whose window fill is over.
	bgFn      func()
	done      chan struct{}
	landed    atomic.Bool
	inflight  bool
	nextReady bool
}

// handoffRowSlots is the fill size, in rows × slots, from which a fill is
// handed to a background goroutine instead of being done in place — rows
// a flush admits late count the same as block rows: each slot of them is
// emitted once and stored at its rows, 8 bytes a row-slot, and
// BenchmarkLinkPatch (64 scattered rows × 32 slots of an 11 000-row block)
// reads 3.5 ns a row-slot where BenchmarkLinkRefill's one-worker tier reads
// 5.0 for a block row. Starting a goroutine and collecting its fill costs
// the foreground time, a fill in flight at the swap has to be waited for,
// and handing off takes a spare block. The line was drawn when a 40-row ×
// 32-slot block filled in 18 µs; with a row now just its signal and rate it
// fills in 3.2 µs (on a 2-core Xeon), so in-place fills just under the line
// are cheaper than when it was drawn, and it is kept: a 40-user fleet cell's
// 32-slot block is 1 280 row-slots, and in place, fleet_stream's 2 048
// cells keep no spare blocks, start no goroutines and hold a block only
// while they tick. cell_dense's 100 000-user blocks are three orders of
// magnitude above the line.
const handoffRowSlots = 1536

// newLinkWindow builds a window of span-slot blocks over a table of up to
// rowCap rows, the first len(sessions) of them occupied. horizon is
// the last slot + 1 a fill may touch (-1 = none), and sharedRate gives the
// blocks one rate row for all slots, until widenRate. workers bounds a
// fill's fan-out. Nothing is filled until the first ensure.
func newLinkWindow(workers, span, rowCap, horizon int, sharedRate bool, sessions []*workload.Session) *linkWindow {
	fill := newLinkFiller(workers, rowCap)
	w := &linkWindow{
		span: span, horizon: horizon,
		fill: fill, patch: fill.clone(),
		handoffMin: handoffRowSlots,
		cur:        &linkBlock{base: -1},
		sharedRate: sharedRate,
		src:        make([]*workload.Session, rowCap),
		rows:       make([]int, len(sessions), rowCap),
		done:       make(chan struct{}, 1),
		snapAll:    true,
	}
	w.bgFn = w.runFill
	// The initial population occupies an identity prefix.
	copy(w.src, sessions)
	for i := range w.rows {
		w.rows[i] = i
	}
	if w.handoff(len(sessions), span) {
		w.cur.linkCols = newLinkCols(rowCap, span, sharedRate)
		w.spare()
	}
	return w
}

// spare allocates what only a handed-off fill needs: the second block,
// shaped like the first, and the snapshot storage.
func (w *linkWindow) spare() {
	w.next = &linkBlock{base: -1, linkCols: newLinkCols(len(w.src), w.span, w.sharedRate)}
	w.snapRows = make([]int, 0, len(w.src))
	w.snap = make([]workload.Session, len(w.src))
	w.snapPtr = make([]*workload.Session, len(w.src))
	for i := range w.snap {
		w.snapPtr[i] = &w.snap[i]
	}
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
// block, in the background. Skipped past the bounded horizon, after stop,
// and for a window too small to hand off: that one is filled in place when
// the clock reaches it.
func (w *linkWindow) prefetch(base int) {
	if w.horizon >= 0 && base >= w.horizon {
		return
	}
	if !w.handoff(len(w.rows), w.windowEnd(base)-base) {
		// No fill consumes the changed list: stop collecting it.
		w.changed, w.snapAll = w.changed[:0], true
		return
	}
	if w.next == nil {
		w.spare()
	}
	w.next.base = base
	stale := w.occupied(w.changed)
	if w.snapAll {
		stale = w.rows
	}
	w.kickFill(w.rows, stale)
	w.changed, w.snapAll = w.changed[:0], false
}

// kickFill hands a background goroutine a fill of the given rows of the
// spare block, from a snapshot taken here, stale being the rows among them
// whose copy is out of date: the table is free to change the moment this
// returns.
func (w *linkWindow) kickFill(rows, stale []int) {
	w.snapRows = append(w.snapRows[:0], rows...)
	for _, i := range stale {
		w.snap[i] = *w.src[i]
	}
	b := w.next
	w.fill.start(&b.linkCols, w.snapPtr, w.snapRows, 0, 0, b.base, w.windowEnd(b.base))
	w.landed.Store(false)
	w.inflight = true
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
		w.kickFill(late, late)
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

// parks reports whether the window borrows its block and slot n is not in
// it: an Advance ending before n parks. A nil window never does.
func (w *linkWindow) parks(n int) bool {
	return w != nil && w.table == nil && w.next == nil && w.willEvict(n)
}

// park gives a borrowed block back to idleBlocks unless slot n is in it,
// invalidating every column view handed out; the next ensure borrows and
// refills.
func (w *linkWindow) park(n int) {
	if w.parks(n) && w.cur.sig != nil {
		idleBlocks.put(w.cur.linkCols)
		w.cur.linkCols, w.cur.base = linkCols{}, -1
	}
}

// stop waits out a background fill, hands off no more and parks
// (idempotent): further window crossings fill in place. The engine calls
// it wherever a run ends — done, failed or cancelled — so no goroutine
// outlives it and no borrowed block stays out.
func (w *linkWindow) stop() {
	w.prefetches.Wait()
	w.syncFill()
	w.handoffMin = math.MaxInt
	w.park(-1)
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
		if i != prev && w.src[i] != nil {
			rows[k] = i
			k++
		}
		prev = i
	}
	return rows[:k]
}

// widenRate gives the blocks a rate row per slot, each a copy of the
// shared one, before the first VBR session is admitted; a background fill
// writing the spare block's row is waited out first.
func (w *linkWindow) widenRate() {
	if !w.sharedRate {
		return
	}
	w.sharedRate = false
	w.syncFill()
	if w.cur.sig != nil {
		w.cur.widenRate()
	}
	if w.next != nil {
		w.next.widenRate()
	}
}

// admitRow registers a newly admitted session in table row i. Its rows
// are filled by the next flush.
func (w *linkWindow) admitRow(i int, sess *workload.Session) {
	w.src[i] = sess
	w.fresh = append(w.fresh, i)
}

// dropRow takes row i out of every later fill: its session has left, or
// the engine retired its user and will not read the row again. What the
// blocks hold of it goes stale. A compiled table has no row source and
// nothing to fill.
func (w *linkWindow) dropRow(i int) {
	if w.src != nil {
		w.src[i] = nil
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
		if w.src[i] != nil && (a == len(add) || add[a] != i) {
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
		if !w.snapAll {
			w.changed = append(w.changed, add...)
		}
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
	w.cur.base = -1
	if w.next != nil {
		w.next.base = -1
	}
	w.fresh, w.queued, w.late, w.holes = w.fresh[:0], w.queued[:0], w.late[:0], false
	w.changed, w.snapAll = w.changed[:0], true
	n := copy(w.src, sessions)
	clear(w.src[n:])
	w.rows = w.rows[:0]
	for i := 0; i < n; i++ {
		w.rows = append(w.rows, i)
	}
}

// slotColumns returns resident slot n's first users signals and rates as
// zero-copy views. The engine aliases them into the sched.Columns slot
// view; they must never be written through, and the next swap invalidates
// them.
func (w *linkWindow) slotColumns(n, users int) ([]units.DBm, []units.KBps) {
	return w.cur.slot(n-w.cur.base, users)
}
