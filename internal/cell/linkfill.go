package cell

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"jointstream/internal/pool"
	"jointstream/internal/radio"
	"jointstream/internal/signal"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// This file is the one link-window fill: compileLink's whole-horizon table
// and every block of the engine's link window (linkwindow.go) come out of
// it. It turns (session, slot) into the five physics values the tick reads —
// signal, throughput v(sig), per-KB energy P(sig), required rate and the
// Eq. (1) limit ⌊τ·v/δ⌋ — with the floating-point expressions of the
// analytic prepare path (prepareColsUser untabled), so a filled row is
// bit-identical to what that path computes.
//
// The work is memory-bound, so the loops are shaped around cache lines
// (DESIGN.md §5): shards are blocks of consecutive users, because
// neighbouring users share 64-byte lines in every column of every slot
// and one user per shard had the workers false-sharing every store; a
// block's signals are staged user-major in per-worker scratch (one
// signal.Fill per user per fillSlots slots) and emitted slot-major, so
// each column is written in sequential runs, not one entry every
// users×8 bytes; the radio curves are evaluated a row at a time.

// Block shape, picked on BenchmarkLinkRefill (N = 100 000, tile 64, two
// cores): ns/row falls as rows get longer — 64 users 14.5, 128 13.0,
// 256 10.9, 512 10.1 at depth 16 — and as the stage gets deeper — 128
// users 15.3 at depth 8, 13.0 at 16, 11.9 at 32 — until the stage
// outgrows L2. 256 × 32 (9.6 one worker, 5.0 two) keeps the stage at
// 64 KB and still gives a 10 000-user cell 40 shards to spread.
const (
	// fillUsers is the shard width: a column row of 256 users is 2 KB,
	// thirty-two whole cache lines, so two workers can share a line only
	// at a block's two ends.
	fillUsers = 256
	// fillSlots is the staging depth. A power of two: the row kernel masks
	// the slot index with it.
	fillSlots = 32
)

// linkCols is a slot-major block of link rows: entry (off, i) of a column
// lives at off*stride+i, so [off*stride, off*stride+n) is one slot's
// per-user window, aliased zero-copy into sched.Columns by the engine.
type linkCols struct {
	sig  []units.DBm
	link []units.KBps
	epkb []units.MJ
	rate []units.KBps
	lu   []int32 // ⌊τ·v(sig)/δ⌋, the Eq. (1) limit before the demand cap

	stride int
	// rateStride is stride, or 0 when every slot shares one rate row: no
	// session that can occupy the block has rate jitter, so the required
	// rate is a per-user constant and slots × stride copies of it would be
	// 8 of the 36 bytes per row written and kept for nothing.
	rateStride int
}

func newLinkCols(stride, slots int, sharedRate bool) linkCols {
	c := linkCols{
		sig:        make([]units.DBm, stride*slots),
		link:       make([]units.KBps, stride*slots),
		epkb:       make([]units.MJ, stride*slots),
		lu:         make([]int32, stride*slots),
		stride:     stride,
		rateStride: stride,
	}
	if sharedRate {
		c.rateStride = 0
		slots = 1
	}
	c.rate = make([]units.KBps, stride*slots)
	return c
}

// widenRate turns a shared rate row into a copy of it per slot, within
// the rate array's capacity if it has room (borrowed storage has).
func (c *linkCols) widenRate() {
	n := len(c.lu)
	if cap(c.rate) < n {
		c.rate = append(make([]units.KBps, 0, n), c.rate...)
	}
	c.rate, c.rateStride = c.rate[:n], c.stride
	for off := c.stride; off < n; off += c.stride {
		copy(c.rate[off:off+c.stride], c.rate[:c.stride])
	}
}

// borrow makes c storage for stride rows × slots, from idleBlocks if an
// entry covers it, with room for a rate row per slot either way. Tests set
// borrowHook to see every block handed out.
func (c *linkCols) borrow(stride, slots int, sharedRate bool) {
	n, ok := stride*slots, false
	if *c, ok = idleBlocks.take(n); !ok {
		*c = newLinkCols(n, 1, false)
	}
	c.sig, c.link, c.epkb, c.rate, c.lu = c.sig[:n], c.link[:n], c.epkb[:n], c.rate[:n], c.lu[:n]
	c.stride, c.rateStride = stride, stride
	if sharedRate {
		c.rate, c.rateStride = c.rate[:stride], 0
	}
	if borrowHook != nil {
		borrowHook(c)
	}
}

var borrowHook func(*linkCols)

func (c linkCols) capacity() int { return min(cap(c.lu), cap(c.rate)) }

// bytes is the resident size of the column arrays.
func (c *linkCols) bytes() int64 {
	return 8*int64(len(c.sig)+len(c.link)+len(c.epkb)+len(c.rate)) + 4*int64(len(c.lu))
}

// slot returns the first n rows of slot offset off as zero-copy views.
func (c *linkCols) slot(off, n int) ([]units.DBm, []units.KBps, []units.MJ, []units.KBps, []int32) {
	lo, r := off*c.stride, off*c.rateStride
	hi := lo + n
	return c.sig[lo:hi:hi], c.link[lo:hi:hi], c.epkb[lo:hi:hi], c.rate[r : r+n : r+n], c.lu[lo:hi:hi]
}

// fillScratch is one worker's staging area for one block.
type fillScratch struct {
	sig  [][fillSlots]units.DBm // user-major staged signals
	rate []units.KBps           // the block's constant required rates
	row  linkCols               // one slot of a gapped block, to scatter (fillBlock)
}

func (sc *fillScratch) capacity() int { return len(sc.sig) }

// idleStore is a process-wide LIFO of idle fill storage, number arrays
// only: fill scratch is borrowed for one block's fill, an in-place
// window's block while its site ticks (linkwindow.go), so a fleet holds
// what its ticking sites use, not one of each per site. take hands out the
// latest entry that covers the request; put keeps the GOMAXPROCS+1 largest,
// as many as can be in use at once when every core fills and a foreground
// joins.
type idleStore[T interface{ capacity() int }] struct {
	mu    sync.Mutex
	items []T
}

var (
	idleBlocks  idleStore[linkCols]
	idleScratch idleStore[*fillScratch]
)

func (l *idleStore[T]) take(need int) (none T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for k := len(l.items) - 1; k >= 0; k-- {
		if x := l.items[k]; x.capacity() >= need {
			l.items = slices.Delete(l.items, k, k+1)
			return x, true
		}
	}
	return
}

func (l *idleStore[T]) put(x T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.items = append(l.items, x)
	for len(l.items) > runtime.GOMAXPROCS(0)+1 {
		k := 0 // the smallest goes: small entries must not starve big requests
		for i, y := range l.items {
			if y.capacity() < l.items[k].capacity() {
				k = i
			}
		}
		l.items = slices.Delete(l.items, k, k+1)
	}
}

// linkFiller holds what a fill needs beyond its destination: the radio
// model (and its exact table, if it has one), the slot grid and the worker
// bound; each block's scratch comes from idleScratch. A filler runs one
// fill at a time.
//
// A fill is set up by start and executed by run, which fans drain out over
// the workers; fill is the two back to back. Blocks are claimed from the
// filler's own counter, not dealt out by pool.Shard, so a goroutine outside
// the fan-out can join a fill that is under way (drain): the link window's
// foreground does, for whatever is left of a background fill at a window
// swap (linkwindow.go).
type linkFiller struct {
	radio     radio.Model
	tab       *radio.Table // nil unless bitwise-exact for radio
	tau, unit float64
	workers   int
	width     int // staged users per block: min(fillUsers, rows the destination holds)

	// The running fill's arguments. They live here, and body is bound
	// once, so a refill hands pool.Shard no fresh closure: the steady
	// state allocates nothing.
	blocks   int          // row blocks of width rows
	next     atomic.Int64 // first unclaimed block
	dst      *linkCols
	sessions []*workload.Session
	rows     []int // ascending destination rows; nil = [0, count)
	count    int
	off      int // slot offset in dst of slot base
	base, hi int // slots [base, hi) go to slot offsets [off, off+hi-base)
	body     func(int)
}

// newLinkFiller builds a filler for destinations of maxRows ≥ 1 rows per
// slot, filled by up to workers ≥ 1 goroutines. The model's table is kept
// only when it is exact, in which case Lookup equals the analytic curves
// at every signal value and never consults the quantizer — hence the
// one-bin, one-point domain.
func newLinkFiller(m radio.Model, tau units.Seconds, unit units.KB, workers, maxRows int) (*linkFiller, error) {
	tab, err := radio.NewTable(m, 0, 0, 1)
	if err != nil {
		return nil, err
	}
	f := &linkFiller{
		radio: m, tau: float64(tau), unit: float64(unit),
		workers: workers,
		width:   min(fillUsers, maxRows),
	}
	if tab.Exact() {
		f.tab = tab
	}
	f.body = f.drain
	return f, nil
}

// clone returns a second filler for the same destinations — same model,
// table, grid and worker bound, its own fill arguments — so two fills can
// run at once.
func (f *linkFiller) clone() *linkFiller {
	c := &linkFiller{
		radio: f.radio, tab: f.tab, tau: f.tau, unit: f.unit,
		workers: f.workers, width: f.width,
	}
	c.body = c.drain
	return c
}

// fill writes slots [base, hi) of the given rows into dst at slot offsets
// [off, off+hi-base): off is 0 for a whole window and the number of slots
// already ticked when rows are patched into a window that is in use. rows
// lists the destination rows in ascending order (row i belongs to
// sessions[i]); nil means rows [0, count). Shards own disjoint row blocks,
// and each session is read by exactly one shard, so traces that are not
// safe for concurrent use stay on one goroutine. A dst with a shared rate
// row must not be handed a session with rate jitter.
func (f *linkFiller) fill(dst *linkCols, sessions []*workload.Session, rows []int, count, off, base, hi int) {
	f.start(dst, sessions, rows, count, off, base, hi)
	f.run()
}

// start sets up the fill that fill describes without executing any of it.
func (f *linkFiller) start(dst *linkCols, sessions []*workload.Session, rows []int, count, off, base, hi int) {
	if rows != nil {
		count = len(rows)
	}
	f.blocks = 0
	if hi > base {
		f.blocks = (count + f.width - 1) / f.width
	}
	f.dst, f.sessions, f.rows, f.count, f.off, f.base, f.hi = dst, sessions, rows, count, off, base, hi
	f.next.Store(0)
}

// run executes the fill start set up on up to workers goroutines. Every
// block is written once run has returned, and so has every drain called
// beside it.
func (f *linkFiller) run() {
	pool.Shard(f.workers, min(f.workers, f.blocks), f.body)
}

// drain is run's shard body: it claims and fills blocks until none is
// left. Blocks are not tied to the shard index.
func (f *linkFiller) drain(int) {
	for {
		b := int(f.next.Add(1)) - 1
		if b >= f.blocks {
			return
		}
		f.fillBlock(b)
	}
}

func (f *linkFiller) scratch() *fillScratch {
	if sc, ok := idleScratch.take(f.width); ok {
		return sc
	}
	return &fillScratch{
		sig:  make([][fillSlots]units.DBm, f.width),
		rate: make([]units.KBps, f.width),
		row:  newLinkCols(f.width, 1, true),
	}
}

// row maps position j of the fill's row list to its destination row.
func (f *linkFiller) row(j int) int {
	if f.rows == nil {
		return j
	}
	return f.rows[j]
}

// fillBlock fills block b: positions [b·width, (b+1)·width) of the row
// list, every slot of the fill. A block whose rows are contiguous (every
// block of a full list) emits each slot straight into the columns. Any other
// block — the scattered rows a churn flush admits, a list with holes — emits
// each slot once into the worker's scratch row and scatters it to its rows,
// so its cost does not follow how its rows are spaced.
func (f *linkFiller) fillBlock(b int) {
	j0 := b * f.width
	m := min(f.width, f.count-j0)
	sc := f.scratch()
	dst := f.dst
	i0 := f.row(j0)
	var rows []int // the block's destination rows; nil when they are i0, i0+1, …
	if f.rows != nil && f.rows[j0+m-1]-i0 != m-1 {
		rows = f.rows[j0 : j0+m]
	}

	jitter := false
	for u := 0; u < m; u++ {
		sess := f.sessions[f.row(j0+u)]
		sc.rate[u] = sess.BaseRate // RateAt's value at every slot, absent jitter
		jitter = jitter || sess.RateJitter != 0
	}

	for c := f.base; c < f.hi; c += fillSlots {
		cw := min(fillSlots, f.hi-c)
		for u := 0; u < m; u++ {
			signal.Fill(f.sessions[f.row(j0+u)].Signal, sc.sig[u][:cw], c)
		}
		for k := 0; k < cw; k++ {
			so := f.off + c + k - f.base
			if rows == nil {
				o := so*dst.stride + i0
				f.emitRow(sc.sig[:m], k, dst.sig[o:o+m], dst.link[o:o+m], dst.epkb[o:o+m], dst.lu[o:o+m])
			} else {
				row := &sc.row
				f.emitRow(sc.sig[:m], k, row.sig[:m], row.link[:m], row.epkb[:m], row.lu[:m])
				for u, i := range rows {
					o := so*dst.stride + i
					dst.sig[o], dst.link[o], dst.epkb[o], dst.lu[o] = row.sig[u], row.link[u], row.epkb[u], row.lu[u]
				}
			}
			if r := so * dst.rateStride; jitter || dst.rateStride != 0 || c+k == f.base {
				for u := 0; u < m; u++ {
					i, v := f.row(j0+u), sc.rate[u]
					if jitter {
						v = f.sessions[i].RateAt(c + k)
					}
					dst.rate[r+i] = v
				}
			}
		}
	}
	idleScratch.put(sc)
}
