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
// model and slot grid. A monolithic table (CompileLink) is immutable and
// safe to share across any number of concurrent Simulators (the
// experiment harness compiles one per scenario and hands it to every
// scheduler run); nothing in the engine writes to it — the engine only
// reslices the columns, so the slot views it hands to schedulers alias
// this shared memory read-only.
//
// A tiled table (CompileLinkTiled) keeps only a sliding window of slots
// resident and refills the block in place as the engine's slot clock
// advances past it, bounding the footprint at users × window rows instead
// of users × horizon. That makes it mutable and single-owner: it must not
// be shared across simulators (New rejects a tiled Config.Link), and the
// column views it returns are valid only until the next slot outside the
// resident window is requested. Every row a tiled table serves is
// bitwise-identical to the monolithic table's row for the same (slot,
// user) — both come out of the same fill — which the tiled differential
// tests assert end to end.
type LinkTable struct {
	users int
	slots int
	tau   units.Seconds
	unit  units.KB
	lut   bool // the fill went through an exact radio.Table

	// Slot-major parallel columns: slot n's per-user window sits at slot
	// offset n-base (base is 0 and never moves for monolithic tables).
	linkCols

	// Tiling state; zero/nil for monolithic tables (window == 0), which
	// drop the filler and the sessions once compiled.
	fill     *linkFiller
	sessions []*workload.Session
	window   int // resident slot capacity (0 = monolithic, all slots resident)
	base     int // first resident slot
	resident int // resident slot count: min(window, slots-base)

	// rows, when non-nil, restricts refills to those user rows (the
	// engine's live set): rows the engine will never read again — retired
	// users — keep stale values instead of being recomputed every window
	// crossing. nil means every row. The engine refreshes it per attach
	// (setRows) and only once no future admissions remain, so every row a
	// prepare or commit can read is always freshly filled; direct
	// slotColumns users (tests, tools) leave it nil and get full blocks.
	rows []int
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

// CompileLinkTiled builds a tiled link table: only `window` consecutive
// slots are resident at a time (users × window rows), and requesting a
// slot outside the resident block refills the block in place starting at
// that slot. The engine's strictly advancing slot clock therefore pays
// one window fill every `window` slots and holds users × window rows of
// link state no matter how long the horizon is — the property the fleet
// runner's memory budget rests on.
//
// Every row served is bitwise-identical to CompileLink's row for the same
// (slot, user): one fill kernel writes both, and it consults the radio
// table only when the table is exact — a property of the model, with no
// signal domain to observe first.
//
// A window ≥ cfg.MaxSlots degenerates to (and returns) the monolithic
// table. The returned tiled table is mutable single-owner state: attach
// it to exactly one Simulator (via Config.LinkTileSlots, which calls
// this), never via the shared Config.Link.
func CompileLinkTiled(cfg Config, sessions []*workload.Session, window int) (*LinkTable, error) {
	if window <= 0 {
		return nil, fmt.Errorf("cell: non-positive link tile window %d", window)
	}
	return compileLink(cfg, sessions, window)
}

func compileLink(cfg Config, sessions []*workload.Session, window int) (*LinkTable, error) {
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
	users, slots := len(sessions), cfg.MaxSlots
	// Prewarm to the horizon: a no-op for the stateless traces fleet
	// workloads use, and for memoizing traces it front-loads the memo
	// growth so no fill, tiled or not, ever extends one.
	workload.PrewarmAll(workers, sessions, slots)
	fill, err := newLinkFiller(cfg.Radio, cfg.Tau, cfg.Unit, workers, users)
	if err != nil {
		return nil, err
	}
	constRate := true
	for _, sess := range sessions {
		constRate = constRate && sess.RateJitter == 0
	}
	t := &LinkTable{
		users:    users,
		slots:    slots,
		tau:      cfg.Tau,
		unit:     cfg.Unit,
		lut:      fill.tab != nil,
		resident: min(window, slots),
	}
	t.linkCols = newLinkCols(users, t.resident, constRate)
	if window < slots {
		t.window, t.fill, t.sessions = window, fill, sessions
	}
	fill.fill(&t.linkCols, sessions, nil, users, 0, 0, t.resident)
	return t, nil
}

// ensureSlot makes slot n resident, refilling the block to start at n
// when it is not. Monolithic tables keep every slot resident.
func (t *LinkTable) ensureSlot(n int) {
	if !t.willEvict(n) {
		return
	}
	if n < 0 || n >= t.slots {
		panic(fmt.Sprintf("cell: link table slot %d outside horizon %d", n, t.slots))
	}
	t.base, t.resident = n, min(t.window, t.slots-n)
	// Live-row refill: with t.rows set, only the rows the engine can still
	// read are recomputed. The values written are identical to the full
	// pass — stale rows are exactly the ones no reader reaches — so a
	// run's Result is unchanged for any worker count.
	t.fill.fill(&t.linkCols, t.sessions, t.rows, t.users, 0, n, n+t.resident)
}

// willEvict reports whether making slot n resident would refill the
// block, invalidating every column view previously returned. The engine
// consults it before the fused pass to know when the pinned previous-slot
// columns must be copied instead of aliased.
func (t *LinkTable) willEvict(n int) bool {
	return t.window > 0 && (n < t.base || n >= t.base+t.resident)
}

// setRows installs the live-row set the next refill is restricted to
// (nil = every row). The engine passes its live list only when no
// pending admissions remain, so no future reader can touch a skipped
// row; the slice is read synchronously inside the next slotColumns call
// and not retained beyond it in any way that outlives the caller's
// ownership.
func (t *LinkTable) setRows(rows []int) {
	if t.window > 0 {
		t.rows = rows
	}
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

// TileWindow returns the resident slot window of a tiled table, or 0 for
// a monolithic table (every slot resident).
func (t *LinkTable) TileWindow() int { return t.window }

// MemoryBytes returns the resident size of the packed column arrays:
// users × horizon rows for a monolithic table, users × window for a
// tiled one, at linkRowBytes per row — less 8 per row beyond the first
// slot when every session's required rate is constant and one rate row
// serves all slots.
func (t *LinkTable) MemoryBytes() int64 { return t.linkCols.bytes() }

// slotColumns returns zero-copy views of slot n's per-user columns. The
// engine aliases these directly into the sched.Columns slot view; they
// must never be written through. For a monolithic table the views are
// shared immutable state valid forever; for a tiled table they alias the
// resident block (recompiled here if slot n is outside it) and are
// invalidated by the next slotColumns call that advances the window.
func (t *LinkTable) slotColumns(n int) (sig []units.DBm, link []units.KBps, epkb []units.MJ, rate []units.KBps, linkUnits []int32) {
	t.ensureSlot(n)
	return t.slot(n-t.base, t.users)
}

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
	if t.window > 0 {
		return fmt.Errorf("cell: tiled link tables are mutable single-owner state and cannot be shared via Config.Link; set Config.LinkTileSlots to compile one per run")
	}
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
