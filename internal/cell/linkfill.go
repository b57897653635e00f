package cell

import (
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

// widenRate turns a shared rate row into a copy of it per slot.
func (c *linkCols) widenRate() {
	slots := len(c.lu) / c.stride
	rate := make([]units.KBps, c.stride*slots)
	for off := 0; off < slots; off++ {
		copy(rate[off*c.stride:], c.rate)
	}
	c.rate, c.rateStride = rate, c.stride
}

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
}

// linkFiller holds what a fill needs beyond its destination: the radio
// model (and its exact table, if it has one), the slot grid, the worker
// bound and the per-worker scratch. A filler runs one fill at a time.
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
	width     int               // staged users per block: min(fillUsers, rows the destination holds)
	free      chan *fillScratch // idle scratch: one per worker, one for a goroutine that joins from outside (drain)

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
		free:    make(chan *fillScratch, workers+1),
	}
	if tab.Exact() {
		f.tab = tab
	}
	f.body = f.drain
	return f, nil
}

// clone returns a second filler for the same destinations — same model,
// table, grid and worker bound, its own scratch and fill arguments — so two
// fills can run at once.
func (f *linkFiller) clone() *linkFiller {
	c := &linkFiller{
		radio: f.radio, tab: f.tab, tau: f.tau, unit: f.unit,
		workers: f.workers, width: f.width,
		free: make(chan *fillScratch, cap(f.free)),
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
	select {
	case sc := <-f.free:
		return sc
	default:
		return &fillScratch{
			sig:  make([][fillSlots]units.DBm, f.width),
			rate: make([]units.KBps, f.width),
		}
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
// list, every slot of the fill.
func (f *linkFiller) fillBlock(b int) {
	j0 := b * f.width
	m := min(f.width, f.count-j0)
	sc := f.scratch()
	dst := f.dst

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
		// Emit each maximal run of consecutive destination rows, one slot
		// row at a time. A full or dense row list is a single run.
		for a := 0; a < m; {
			i0 := f.row(j0 + a)
			e := m
			if f.rows != nil {
				for e = a + 1; e < m && f.rows[j0+e] == i0+e-a; e++ {
				}
			}
			n := e - a
			for k := 0; k < cw; k++ {
				so := f.off + c + k - f.base
				o := so*dst.stride + i0
				sig, link := dst.sig[o:o+n], dst.link[o:o+n]
				f.emitRow(sc.sig[a:e], k, sig, link, dst.epkb[o:o+n], dst.lu[o:o+n])
				r := so*dst.rateStride + i0
				if jitter {
					for u := 0; u < n; u++ {
						dst.rate[r+u] = f.sessions[i0+u].RateAt(c + k)
					}
				} else if dst.rateStride != 0 || c+k == f.base {
					copy(dst.rate[r:r+n], sc.rate[a:e])
				}
			}
			a = e
		}
	}
	select {
	case f.free <- sc:
	default:
	}
}
