package cell

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"jointstream/internal/radio"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// This file implements the compiled link table: every user's trace
// flattened into slot-major blocks of per-slot link rows — signal and
// required rate — filled once and shared. It is the rate prediction the
// Predictive scheduler's forecast and the oracle read, and the cache a
// sweep hands every scheduler run of one scenario (Config.Link); a run
// handed none slides its own window (linkwindow.go) over the same fill
// (linkfill.go). A run over a table aliases each slot's rows zero-copy
// into its sched.Columns view and derives throughput, per-KB energy and
// the Eq. (1) limit from the signals through its own radio.Link.
// RunReference ignores the table — it evaluates the traces and models into
// private columns of its own — which makes the engine differential tests
// assert derived == analytic on every slot.

// tableBlockSlots is the span of one LinkTable block, the unit a table is
// filled in. A table holds its slots up to the end of the block after the
// one its readers' furthest slot is in; a reader crossing a block edge pays
// one atomic load (and the engine one pinned-column copy, as at any
// link-window edge).
const tableBlockSlots = 256

// LinkTable is the flattened link view of one workload under one radio
// model and slot grid: the product of CompileLink, safe to share across
// any number of concurrent Simulators and forecasts (the experiment
// harness compiles one per scenario and hands it to every scheduler run).
//
// It is a fill-once cache of tableBlockSlots-slot blocks: a block is filled
// the first time any reader reaches a slot inside it, and never changes
// afterwards, so the slot views handed out alias immutable memory. Runs
// that end early — the paper sweep's stop long before its 10 000-slot
// horizon — never pay for, or hold, the slots they do not reach. A reader
// of a filled block takes one atomic load; a miss takes the table's mutex,
// re-checks, fills and publishes. A run's window entering a block has the
// block after it filled on a background goroutine (prefetch), so the run
// that pushes furthest ahead — in a sweep, the long runs on its critical
// path — need not fill in line. Its sessions' memos are extended over the
// whole horizon once, when the table is compiled, so no fill — and no run
// over the table — grows a memo another reader sees.
//
// A table is how a caller shares rows between runs and forecasts
// (Config.Link); a run handed none slides an engine-owned window
// (linkwindow.go) instead, which is not a LinkTable and is never shared.
type LinkTable struct {
	users int
	slots int
	// link derives the forecasts' physics from the rows, under the model
	// and slot grid the table was compiled for.
	link *radio.Link
	// sharedRate: no session has rate jitter, so each block keeps one
	// required-rate row for all its slots.
	sharedRate bool

	// blocks[k] covers slots [k·tableBlockSlots, min((k+1)·tableBlockSlots,
	// slots)); nil until a reader reaches it. ahead[k] is set once a
	// background fill of block k has been started.
	blocks []atomic.Pointer[linkBlock]
	ahead  []atomic.Bool

	// mu serializes the fills and guards the filler's scratch.
	mu   sync.Mutex
	fill *linkFiller
	src  rowSource
}

// CompileLink builds the link table of the sessions over cfg's slot grid
// and radio model: the block holding slot 0 is filled here, every other
// block by the first reader that reaches it. The values are exactly the
// ones RunReference evaluates. The sessions' memos are extended over the
// horizon here, so afterwards any number of readers may share them.
func CompileLink(cfg Config, sessions []*workload.Session) (*LinkTable, error) {
	t, err := newLinkTable(cfg, sessions, cfg.MaxSlots)
	if err != nil {
		return nil, err
	}
	t.block(0)
	return t, nil
}

// CompileLinkTiled compiles the first min(window, cfg.MaxSlots) slots as
// a fully filled LinkTable — users × window rows, what one engine-owned
// link window of that length holds. It is retained only for
// benchmark/cell_dense.go, which prices a window (cell.link_compile_ms,
// cell.link_mb) through it; New accepts the result via Config.Link only
// for a run no longer than the slots it covers. Runs tile their link state
// with Config.LinkTileSlots, not with this.
func CompileLinkTiled(cfg Config, sessions []*workload.Session, window int) (*LinkTable, error) {
	if window <= 0 {
		return nil, fmt.Errorf("cell: non-positive link tile window %d", window)
	}
	t, err := newLinkTable(cfg, sessions, min(window, cfg.MaxSlots))
	if err != nil {
		return nil, err
	}
	t.fillAll()
	return t, nil
}

// newLinkTable builds an empty table of slots [0, slots) of cfg's grid.
func newLinkTable(cfg Config, sessions []*workload.Session, slots int) (*LinkTable, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(sessions) == 0 {
		return nil, fmt.Errorf("cell: link table needs at least one session")
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	link, err := radio.NewLink(cfg.Radio, cfg.Tau, cfg.Unit)
	if err != nil {
		return nil, err
	}
	workload.PrewarmAll(workers, sessions, slots)
	blocks := (slots + tableBlockSlots - 1) / tableBlockSlots
	return &LinkTable{
		users:      len(sessions),
		slots:      slots,
		link:       link,
		sharedRate: constRate(sessions),
		blocks:     make([]atomic.Pointer[linkBlock], blocks),
		ahead:      make([]atomic.Bool, blocks),
		fill:       newLinkFiller(workers, len(sessions)),
		src:        newRowSource(len(sessions), sessions),
	}, nil
}

// block returns the filled block covering slot n, filling it if no reader
// has reached it yet.
func (t *LinkTable) block(n int) *linkBlock {
	k := n / tableBlockSlots
	if b := t.blocks[k].Load(); b != nil {
		return b
	}
	return t.fillBlock(k)
}

// fillBlock is block's miss path: under the mutex, re-check, fill, and
// publish.
func (t *LinkTable) fillBlock(k int) *linkBlock {
	t.mu.Lock()
	defer t.mu.Unlock()
	if b := t.blocks[k].Load(); b != nil {
		return b // filled while this reader waited
	}
	base := k * tableBlockSlots
	hi := min(base+tableBlockSlots, t.slots)
	b := &linkBlock{base: base, linkCols: newLinkCols(t.users, hi-base, t.sharedRate)}
	t.fill.fill(&b.linkCols, t.src, nil, t.users, 0, base, hi)
	t.blocks[k].Store(b)
	return b
}

// prefetch starts filling block k on a goroutine of its own, counted in
// wg, which ends with the fill — unless the block is past the horizon,
// filled, or already started. A table window calls it for the block after
// the one it enters, and waits wg out when its run ends: the fill runs
// beside the reader instead of in its line, a reader that gets there first
// waits for it on the mutex as for any fill, and no fill a run started
// outlives the run.
func (t *LinkTable) prefetch(k int, wg *sync.WaitGroup) {
	if k >= len(t.blocks) || t.blocks[k].Load() != nil || t.ahead[k].Swap(true) {
		return
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		t.block(k * tableBlockSlots)
	}()
}

// fillAll fills every block no reader has reached: the whole horizon.
func (t *LinkTable) fillAll() {
	for base := 0; base < t.slots; base += tableBlockSlots {
		t.block(base)
	}
}

// slot returns slot n's signals and rates as zero-copy views of its
// block, which stay valid as long as the table lives.
func (t *LinkTable) slot(n int) ([]units.DBm, []units.KBps) {
	b := t.block(n)
	return b.slot(n-b.base, t.users)
}

// SlotSignals returns slot n's per-user signal column as a zero-copy
// reslice of the table: shared immutable state, valid as long as the
// table. Callers must never write through it.
func (t *LinkTable) SlotSignals(n int) []units.DBm {
	sig, _ := t.slot(n)
	return sig
}

// constRate reports whether no session has rate jitter, so one rate row
// serves every slot.
func constRate(sessions []*workload.Session) bool {
	for _, sess := range sessions {
		if sess.RateJitter != 0 {
			return false
		}
	}
	return true
}

// Users returns the user count the table was compiled for.
func (t *LinkTable) Users() int { return t.users }

// Slots returns the slot horizon the table covers.
func (t *LinkTable) Slots() int { return t.slots }

// FilledSlots returns how many slots of the horizon are filled or being
// filled: the blocks readers have reached and the blocks started ahead of
// them, each counted whole. It never exceeds Slots and only grows; once the
// readers are done it is a function of how far each of them read.
func (t *LinkTable) FilledSlots() int {
	n := 0
	for k := range t.blocks {
		if t.blocks[k].Load() != nil || t.ahead[k].Load() {
			n += min(tableBlockSlots, t.slots-k*tableBlockSlots)
		}
	}
	return n
}

// MemoryBytes returns the size of the filled blocks' column arrays: users
// × FilledSlots rows at 16 B (sig, rate) per row — less 8 per row beyond
// each block's first slot when every session's required rate is constant
// and one rate row serves the block.
func (t *LinkTable) MemoryBytes() int64 {
	var n int64
	for k := range t.blocks {
		if b := t.blocks[k].Load(); b != nil {
			n += b.bytes()
		}
	}
	return n
}

// linkVerifySamples bounds the per-attach entry re-derivations performed
// by compatible: enough samples, spread across users and slots, to make a
// mismatched model or workload essentially certain to trip, while keeping
// the check O(1) relative to the table size.
const linkVerifySamples = 16

// compatible checks that a caller-supplied table matches the run it is
// being attached to: the shape exactly, and then, because the sessions
// behind the rows cannot be compared, a deterministic sample of entries of
// block 0 — filled at compile time — re-read from the run's sessions and
// required to match bitwise. A table holds only signals and rates; the run
// derives its physics from them under its own radio model and slot grid,
// so neither has to match the table's.
func (t *LinkTable) compatible(cfg Config, sessions []*workload.Session) error {
	if t.users != len(sessions) {
		return fmt.Errorf("cell: link table compiled for %d users, run has %d", t.users, len(sessions))
	}
	if t.slots < cfg.MaxSlots {
		return fmt.Errorf("cell: link table covers %d slots, run needs %d", t.slots, cfg.MaxSlots)
	}
	b := t.block(0)
	total := t.users * min(tableBlockSlots, t.slots)
	samples := min(linkVerifySamples, total)
	for k := 0; k < samples; k++ {
		// Evenly strided over the block's flat slot-major arrays:
		// consecutive samples land on different users and well-separated
		// slots.
		idx := 0
		if samples > 1 {
			idx = k * (total - 1) / (samples - 1)
		}
		n, i := idx/t.users, idx%t.users
		sess := sessions[i]
		if sig := sess.Signal.At(n); b.sig[idx] != sig {
			return fmt.Errorf("cell: link table user %d slot %d: signal %v != session's %v (compiled from a different workload?)", i, n, b.sig[idx], sig)
		}
		if rate := sess.RateAt(n); b.rate[n*b.rateStride+i] != rate {
			return fmt.Errorf("cell: link table user %d slot %d: rate %v != session's %v (compiled from a different workload?)", i, n, b.rate[n*b.rateStride+i], rate)
		}
	}
	return nil
}
