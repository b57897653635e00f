package cell

import (
	"fmt"
	"runtime"

	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// This file implements the compiled link-table layer: after the sessions
// are prewarmed, every user's trace is flattened into contiguous
// slot-major struct-of-arrays columns of per-slot link values — signal,
// throughput, per-KB energy, required rate, and the Eq. (1) link limit in
// units. The tick path's prepare phase then aliases each slot's column
// window (a zero-copy reslice per column, never a copy) straight into the
// sched.Columns view instead of evaluating the models per user. The
// columns are produced by the link-window fill (linkfill.go), which
// evaluates the radio curves through a radio.Table when (and only when)
// that table is bitwise-exact for the run's model, so flattening can
// never perturb the physics. RunReference deliberately ignores the table
// — it evaluates the models into private columns of its own — which makes
// the engine differential tests assert flattened == analytic on every
// slot.

// linkRowBytes is the per-user-slot footprint across the parallel column
// arrays — four 8-byte columns (sig, link, epkb, rate) and the int32 unit
// limit — which the row-cap sizing math rests on. (A table whose sessions
// all have a constant required rate keeps one rate row for every slot and
// is 8 bytes per row smaller; MemoryBytes reports what is resident.)
const linkRowBytes = 4*8 + 4

// LinkTable is the flattened link view of one workload under one radio
// model and slot grid: the product of CompileLink, immutable once compiled
// and safe to share across any number of concurrent Simulators (the
// experiment harness compiles one per scenario and hands it to every
// scheduler run). Nothing in the engine writes to it — the engine's link
// window over a table (tableWindow) only reslices the columns, so the
// slot views it hands to schedulers alias this shared memory read-only.
// A run that must not hold users × horizon rows sets Config.LinkTileSlots
// instead and gets an engine-owned sliding window (linkwindow.go), which
// is not a LinkTable and is never shared.
type LinkTable struct {
	users int
	slots int
	tau   units.Seconds
	unit  units.KB
	lut   bool // the fill went through an exact radio.Table

	// Slot-major parallel columns: slot n's per-user window sits at slot
	// offset n.
	linkCols
}

// DefaultLinkTableMaxRows caps the automatic link-table compilation in
// New at users×MaxSlots rows (linkRowBytes each): 4M rows ≈ 144 MB with
// the current 36-byte column footprint. Larger runs fall back to the
// uncompiled prepare path; callers that want a bigger table compile one
// explicitly and pass it via Config.Link.
const DefaultLinkTableMaxRows = 4 << 20

// CompileLink flattens the sessions' per-slot link view for cfg's slot
// grid and radio model. It prewarms the sessions to cfg.MaxSlots first
// (idempotent if the caller already did), so the produced values are
// exactly the ones the uncompiled tick path would compute.
func CompileLink(cfg Config, sessions []*workload.Session) (*LinkTable, error) {
	return compileLink(cfg, sessions, cfg.MaxSlots)
}

// CompileLinkTiled compiles the first min(window, cfg.MaxSlots) slots as
// an ordinary immutable LinkTable — users × window rows, what one
// engine-owned link window of that length holds. It is retained only for
// benchmark/cell_dense.go, which prices a window (cell.link_compile_ms,
// cell.link_mb) through it; New accepts the result via Config.Link only
// for a run no longer than the slots it covers. Runs tile their link state
// with Config.LinkTileSlots, not with this.
func CompileLinkTiled(cfg Config, sessions []*workload.Session, window int) (*LinkTable, error) {
	if window <= 0 {
		return nil, fmt.Errorf("cell: non-positive link tile window %d", window)
	}
	return compileLink(cfg, sessions, min(window, cfg.MaxSlots))
}

// compileLink fills slots [0, slots) of cfg's grid into a new table.
func compileLink(cfg Config, sessions []*workload.Session, slots int) (*LinkTable, error) {
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
	users := len(sessions)
	// Prewarm to the horizon: a no-op for the stateless traces fleet
	// workloads use, and for memoizing traces it front-loads the memo
	// growth so no fill ever extends one.
	workload.PrewarmAll(workers, sessions, cfg.MaxSlots)
	fill, err := newLinkFiller(cfg.Radio, cfg.Tau, cfg.Unit, workers, users)
	if err != nil {
		return nil, err
	}
	t := &LinkTable{
		users:    users,
		slots:    slots,
		tau:      cfg.Tau,
		unit:     cfg.Unit,
		lut:      fill.tab != nil,
		linkCols: newLinkCols(users, slots, constRate(sessions)),
	}
	fill.fill(&t.linkCols, sessions, nil, users, 0, 0, slots)
	return t, nil
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

// Tau returns the slot length the table was compiled for.
func (t *LinkTable) Tau() units.Seconds { return t.tau }

// Unit returns the data-unit size δ the table was compiled for.
func (t *LinkTable) Unit() units.KB { return t.unit }

// ViaLUT reports whether the columns were produced through an exact
// radio.Table (false means direct analytic evaluation).
func (t *LinkTable) ViaLUT() bool { return t.lut }

// MemoryBytes returns the size of the packed column arrays: users × slots
// rows at linkRowBytes per row — less 8 per row beyond the first slot when
// every session's required rate is constant and one rate row serves all
// slots.
func (t *LinkTable) MemoryBytes() int64 { return t.linkCols.bytes() }

// linkVerifySamples bounds the per-attach entry re-derivations performed
// by compatible: enough samples, spread across users and slots, to make a
// mismatched model or workload essentially certain to trip, while keeping
// the check O(1) relative to the table size.
const linkVerifySamples = 16

// compatible checks that a caller-supplied table matches the run it is
// being attached to. Shape and slot grid are compared exactly; because
// the radio model and sessions behind the columns cannot be compared
// through the interfaces, a deterministic sample of entries is then
// re-derived from cfg.Radio and the run's (already prewarmed) sessions
// and required to match bitwise — the flattening path evaluates the same
// floating-point expressions (the quantized LUT is used only when
// provably exact), so any divergence means the table was compiled under
// a different model or workload and would silently replay wrong physics.
func (t *LinkTable) compatible(cfg Config, sessions []*workload.Session) error {
	if t.users != len(sessions) {
		return fmt.Errorf("cell: link table compiled for %d users, run has %d", t.users, len(sessions))
	}
	if t.slots < cfg.MaxSlots {
		return fmt.Errorf("cell: link table covers %d slots, run needs %d", t.slots, cfg.MaxSlots)
	}
	if t.tau != cfg.Tau || t.unit != cfg.Unit {
		return fmt.Errorf("cell: link table slot grid (tau=%v, unit=%v) != run (tau=%v, unit=%v)",
			t.tau, t.unit, cfg.Tau, cfg.Unit)
	}
	total := t.users * cfg.MaxSlots
	samples := linkVerifySamples
	if samples > total {
		samples = total
	}
	tau, unit := float64(cfg.Tau), float64(cfg.Unit)
	for k := 0; k < samples; k++ {
		// Evenly strided over the flat slot-major arrays: consecutive
		// samples land on different users and well-separated slots.
		idx := 0
		if samples > 1 {
			idx = k * (total - 1) / (samples - 1)
		}
		n, i := idx/t.users, idx%t.users
		sess := sessions[i]
		if sig := sess.Signal.At(n); t.sig[idx] != sig {
			return fmt.Errorf("cell: link table user %d slot %d: signal %v != session's %v (compiled from a different workload?)", i, n, t.sig[idx], sig)
		}
		if rate := sess.RateAt(n); t.rate[n*t.rateStride+i] != rate {
			return fmt.Errorf("cell: link table user %d slot %d: rate %v != session's %v (compiled from a different workload?)", i, n, t.rate[n*t.rateStride+i], rate)
		}
		if v := cfg.Radio.Throughput.Throughput(t.sig[idx]); t.link[idx] != v {
			return fmt.Errorf("cell: link table user %d slot %d: throughput %v != model's %v (compiled under a different radio model?)", i, n, t.link[idx], v)
		}
		if p := cfg.Radio.Power.EnergyPerKB(t.sig[idx]); t.epkb[idx] != p {
			return fmt.Errorf("cell: link table user %d slot %d: energy/KB %v != model's %v (compiled under a different radio model?)", i, n, t.epkb[idx], p)
		}
		if lu := int32(floorUnits(float64(t.link[idx])*tau, unit)); t.lu[idx] != lu {
			return fmt.Errorf("cell: link table user %d slot %d: link units %d != derived %d", i, n, t.lu[idx], lu)
		}
	}
	return nil
}
