package cell

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"jointstream/internal/pool"
	"jointstream/internal/signal"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// This file is the one link-window fill: compileLink's whole-horizon table
// and every block of the engine's link window (linkwindow.go) come out of
// it. It turns (session, slot) into the two values a link row keeps — the
// signal and the required rate; the tick derives v(sig), P(sig) and the
// Eq. (1) limit from the signal through radio.Link, so a block stores 8
// bytes a row-slot plus its rate rows. The work is memory-bound, so the
// loops are shaped around cache lines (DESIGN.md §5): shards are blocks of
// consecutive users, staged user-major per worker and emitted slot-major.

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
	rate []units.KBps

	stride int
	// rateStride is stride, or 0 when every slot shares one rate row: no
	// session that can occupy the block has rate jitter, so the required
	// rate is a per-user constant and slots × stride copies of it would be
	// half of every row written and kept for nothing.
	rateStride int
}

func newLinkCols(stride, slots int, sharedRate bool) (c linkCols) {
	c.reshape(stride, slots, sharedRate)
	return c
}

// reshape makes c a block of stride rows × slots with one rate row when
// sharedRate, one a slot otherwise, in its own arrays where they are big
// enough and in new ones where they are not.
func (c *linkCols) reshape(stride, slots int, sharedRate bool) {
	n, r := stride*slots, stride*slots
	c.stride, c.rateStride = stride, stride
	if sharedRate {
		r, c.rateStride = stride, 0
	}
	if cap(c.sig) < n {
		c.sig = make([]units.DBm, n)
	}
	if cap(c.rate) < r {
		c.rate = make([]units.KBps, r)
	}
	c.sig, c.rate = c.sig[:n], c.rate[:r]
}

// widenRate turns a shared rate row into a copy of it per slot, within
// the rate array's capacity if it has room.
func (c *linkCols) widenRate() {
	n := len(c.sig)
	if cap(c.rate) < n {
		c.rate = append(make([]units.KBps, 0, n), c.rate...)
	}
	c.rate, c.rateStride = c.rate[:n], c.stride
	for off := c.stride; off < n; off += c.stride {
		copy(c.rate[off:off+c.stride], c.rate[:c.stride])
	}
}

// borrow makes c a block shaped as reshape does, in the smallest
// idleBlocks entry that covers both its signals and its rate rows, or
// allocated if none does. Tests set borrowHook to see every block handed
// out.
func (c *linkCols) borrow(stride, slots int, sharedRate bool) {
	r := stride * slots
	if sharedRate {
		r = stride
	}
	*c, _ = idleBlocks.take(stride*slots, r)
	c.reshape(stride, slots, sharedRate)
	if borrowHook != nil {
		borrowHook(c)
	}
}

var borrowHook func(*linkCols)

func (c linkCols) capacity() (int, int) { return cap(c.sig), cap(c.rate) }

// bytes is the resident size of the column arrays: 8 bytes a row-slot of
// signal, and the rate rows.
func (c *linkCols) bytes() int64 { return 8 * int64(len(c.sig)+len(c.rate)) }

// slot returns the first n rows of slot offset off as zero-copy views.
func (c *linkCols) slot(off, n int) ([]units.DBm, []units.KBps) {
	lo, r := off*c.stride, off*c.rateStride
	hi := lo + n
	return c.sig[lo:hi:hi], c.rate[r : r+n : r+n]
}

// rowSource holds each table row's session, nil for a row no fill reads.
// A window's foreground stores into it while a background fill reads it
// (linkwindow.go), so every access is atomic.
type rowSource []atomic.Pointer[workload.Session]

func newRowSource(rows int, sessions []*workload.Session) rowSource {
	src := make(rowSource, rows)
	for i, sess := range sessions {
		src[i].Store(sess)
	}
	return src
}

// fillScratch is one worker's staging area for one block: the signals,
// user-major, and each staged row's destination, session and constant
// required rate.
type fillScratch struct {
	sig  [][fillSlots]units.DBm
	row  []int
	sess []*workload.Session
	rate []units.KBps
}

func (sc *fillScratch) capacity() (int, int) { return len(sc.sig), 0 }

// idleStore is a process-wide store of idle fill storage, number arrays
// only: fill scratch is borrowed for one block's fill, a small window's
// block while its site ticks (linkwindow.go), so a fleet holds what its
// ticking sites use, not one of each per site. An entry's capacity is two
// lengths — a block's signals and rate rows, a scratch's rows and 0 — and
// its size their sum. take hands out the smallest entry that covers both
// of a request's; put keeps the GOMAXPROCS+1 largest, as many as can be in
// use at once when every core fills beside a background fill's own
// goroutine.
type idleStore[T interface{ capacity() (int, int) }] struct {
	mu    sync.Mutex
	items []T
}

var (
	idleBlocks  idleStore[linkCols]
	idleScratch idleStore[*fillScratch]
)

func (l *idleStore[T]) take(n, r int) (none T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	k, least := -1, 0
	for i, x := range l.items {
		if a, b := x.capacity(); a >= n && b >= r && (k < 0 || a+b < least) {
			k, least = i, a+b
		}
	}
	if k < 0 {
		return
	}
	x := l.items[k]
	l.items = slices.Delete(l.items, k, k+1)
	return x, true
}

func (l *idleStore[T]) put(x T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.items = append(l.items, x)
	for len(l.items) > runtime.GOMAXPROCS(0)+1 {
		k, least := 0, math.MaxInt // the smallest goes: small entries must not starve big requests
		for i, y := range l.items {
			if a, b := y.capacity(); a+b < least {
				k, least = i, a+b
			}
		}
		l.items = slices.Delete(l.items, k, k+1)
	}
}

// rowsFilled counts the row-slots fills were asked for (one add a block):
// cell.link.rows_filled, what a run's link rows cost against its ticks.
var rowsFilled atomic.Int64

// linkFiller holds what a fill needs beyond its destination: the worker
// bound and the block width; each block's scratch comes from idleScratch.
// A filler runs one fill at a time: start sets it up and run executes it,
// which lets the link window hand a fill to a goroutine of its own
// (linkwindow.go); fill is the two back to back.
type linkFiller struct {
	workers int
	width   int // staged users per block: min(fillUsers, rows the destination holds)

	// The running fill's arguments. They live here, and body is bound
	// once, so a refill hands pool.Shard no fresh closure: the steady
	// state allocates nothing.
	blocks   int // row blocks of width rows
	dst      *linkCols
	src      rowSource
	rows     []int // ascending destination rows; nil = [0, count)
	count    int
	off      int // slot offset in dst of slot base
	base, hi int // slots [base, hi) go to slot offsets [off, off+hi-base)
	body     func(int)
}

// newLinkFiller builds a filler for destinations of maxRows ≥ 1 rows per
// slot, filled by up to workers ≥ 1 goroutines.
func newLinkFiller(workers, maxRows int) *linkFiller {
	f := &linkFiller{workers: workers, width: min(fillUsers, maxRows)}
	f.body = f.fillBlock
	return f
}

// fill writes slots [base, hi) of the given rows into dst at slot offsets
// [off, off+hi-base): off is 0 for a whole window and the number of slots
// already ticked when rows are patched into a window that is in use. rows
// lists the destination rows in ascending order (row i belongs to the
// session src[i] holds when the fill reads it); nil means rows [0, count).
// A row whose session is nil by then is skipped. Shards own disjoint row
// blocks, and each session is read by exactly one shard, so traces that
// are not safe for concurrent use stay on one goroutine. A dst with a
// shared rate row must not be handed a session with rate jitter.
func (f *linkFiller) fill(dst *linkCols, src rowSource, rows []int, count, off, base, hi int) {
	f.start(dst, src, rows, count, off, base, hi)
	f.run()
}

// start sets up the fill that fill describes without executing any of it.
func (f *linkFiller) start(dst *linkCols, src rowSource, rows []int, count, off, base, hi int) {
	if rows != nil {
		count = len(rows)
	}
	f.blocks = 0
	if hi > base {
		f.blocks = (count + f.width - 1) / f.width
	}
	f.dst, f.src, f.rows, f.count, f.off, f.base, f.hi = dst, src, rows, count, off, base, hi
}

// run executes the fill start set up, its row blocks dealt out over up to
// workers goroutines by pool.Shard. Every block is written once it returns.
func (f *linkFiller) run() {
	pool.Shard(f.workers, f.blocks, f.body)
}

func (f *linkFiller) scratch() *fillScratch {
	if sc, ok := idleScratch.take(f.width, 0); ok {
		return sc
	}
	w := f.width
	return &fillScratch{make([][fillSlots]units.DBm, w), make([]int, w), make([]*workload.Session, w), make([]units.KBps, w)}
}

// fillBlock fills block b: positions [b·width, (b+1)·width) of the row
// list, every slot of the fill. Each row's session is read once, and a
// row that holds none is left as it is. A block whose rows are contiguous
// (every block of a full list) emits each slot as one run of the signal
// column. Any other block — the scattered rows a churn flush admits, a
// list with holes — stores each staged signal at its row.
func (f *linkFiller) fillBlock(b int) {
	j0 := b * f.width
	m := min(f.width, f.count-j0)
	rowsFilled.Add(int64(m * (f.hi - f.base)))
	sc := f.scratch()
	dst := f.dst

	n, jitter := 0, false // staged rows
	for j := j0; j < j0+m; j++ {
		i := j
		if f.rows != nil {
			i = f.rows[j]
		}
		sess := f.src[i].Load()
		if sess == nil {
			continue
		}
		sc.row[n], sc.sess[n] = i, sess
		sc.rate[n] = sess.BaseRate // RateAt's value at every slot, absent jitter
		jitter = jitter || sess.RateJitter != 0
		n++
	}
	rows, sess := sc.row[:n], sc.sess[:n]
	contiguous := n > 0 && rows[n-1]-rows[0] == n-1

	for c := f.base; c < f.hi && n > 0; c += fillSlots {
		cw := min(fillSlots, f.hi-c)
		for u, s := range sess {
			signal.Fill(s.Signal, sc.sig[u][:cw], c)
		}
		for k := 0; k < cw; k++ {
			so := f.off + c + k - f.base
			if o := so * dst.stride; contiguous {
				emitRow(sc.sig[:n], k, dst.sig[o+rows[0]:o+rows[0]+n])
			} else {
				for u, i := range rows {
					dst.sig[o+i] = sc.sig[u][k]
				}
			}
			if r := so * dst.rateStride; jitter || dst.rateStride != 0 || c+k == f.base {
				for u, i := range rows {
					v := sc.rate[u]
					if jitter {
						v = sess[u].RateAt(c + k)
					}
					dst.rate[r+i] = v
				}
			}
		}
	}
	clear(sess) // an idle scratch keeps no session alive
	idleScratch.put(sc)
}
