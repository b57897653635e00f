// Open-system serving mode: the churn-driven, unbounded-horizon face of
// the engine. OpenSim wraps the stepped Simulator
// (Start/Advance/Finish) and adds what a long-running service needs on
// top of a closed batch run:
//
//   - mid-run admission and departure: sessions/columns are allocated
//     from a free-list of table slots, departed or completed users are
//     folded into streaming aggregates and their slots compacted out for
//     reuse instead of lingering retired;
//   - an admission controller (Admission, the rule the gateway applies
//     too): a cap on concurrent sessions, rejecting with a typed
//     *OverCapacityError instead of degrading everyone;
//   - an unbounded horizon: the slot clock extends on demand and no
//     per-slot series is kept, so memory is bounded by the session table,
//     never by uptime;
//   - sliding-window metrics: per-session lifetime rebuffering lands in a
//     windowed streaming histogram (metrics.WindowedHist) at session end;
//     an unbounded run rotates it every openWindowSlots slots and keeps the
//     last openWindows, so p50/p99 never require a finalized run;
//   - a link window that follows the session table (linkwindow.go): the
//     same sliding window of precomputed link rows a closed run slides,
//     here with rows admitted and dropped mid-run, feeding the same prepare
//     path.
//
// A bounded OpenSim is also how every closed run outside this package is
// built (Run): it reads a caller's compiled LinkTable when Cell.Link is
// set, or slides its own window under the closed rule (closedSpan).
// Closed-world equivalence is pinned by construction and by test: with
// no mid-run Admit/DepartSerial calls and a finite horizon, OpenSim
// drives the very same Simulator through the very same Advance loop, so
// Finish returns a Result byte-identical to Simulator.Run (internal/simtest's
// open-mode differential matrix asserts it across all nine schedulers).
package cell

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"jointstream/internal/abr"
	"jointstream/internal/metrics"
	"jointstream/internal/sched"
	"jointstream/internal/signal"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// ErrOverCapacity is the sentinel every admission rejection matches via
// errors.Is; the concrete error is always a *OverCapacityError carrying
// which limit bound.
var ErrOverCapacity = errors.New("cell: over capacity")

// OverCapacityError reports an admission rejection: the session-table
// cap or the capacity headroom check refused a new session.
type OverCapacityError struct {
	// Reason is "session-cap" or "headroom".
	Reason string
	// InService and MaxSessions describe the session-cap rejection.
	InService, MaxSessions int
	// DemandKBps and LimitKBps describe the headroom rejection: the
	// would-be total required rate versus the headroom.
	DemandKBps, LimitKBps units.KBps
}

func (e *OverCapacityError) Error() string {
	if e.Reason == "session-cap" {
		return fmt.Sprintf("cell: admission rejected: %d sessions in service at cap %d", e.InService, e.MaxSessions)
	}
	return fmt.Sprintf("cell: admission rejected: demand %v KB/s exceeds headroom %v KB/s", e.DemandKBps, e.LimitKBps)
}

// Is makes errors.Is(err, ErrOverCapacity) match.
func (e *OverCapacityError) Is(target error) bool { return target == ErrOverCapacity }

// Admission is the one admission rule of both serving paths — OpenSim and
// the gateway: a cap on concurrent sessions plus an Eq.-1-style headroom
// check on the summed required rates, which only the gateway sets
// (gateway.Config.AdmitHeadroomFrac). The zero value admits everyone.
type Admission struct {
	// MaxSessions caps in-service sessions; 0 means no cap.
	MaxSessions int
	// HeadroomKBps bounds the summed required rate of every in-service
	// session plus the newcomer's; 0 disables the check.
	HeadroomKBps units.KBps
}

// NewAdmission builds the rule from a session cap and a headroom given as
// a fraction of the serving capacity (0 disables it).
func NewAdmission(maxSessions int, headroomFrac float64, capacity units.KBps) Admission {
	a := Admission{MaxSessions: maxSessions}
	if headroomFrac > 0 {
		a.HeadroomKBps = units.KBps(headroomFrac * float64(capacity))
	}
	return a
}

// Check decides a newcomer with required rate rate against inService
// sessions whose required rates sum to demand: nil admits, a
// *OverCapacityError says which limit refused.
func (a Admission) Check(inService int, demand, rate units.KBps) error {
	if a.MaxSessions > 0 && inService >= a.MaxSessions {
		return &OverCapacityError{Reason: "session-cap", InService: inService, MaxSessions: a.MaxSessions}
	}
	if a.HeadroomKBps > 0 && demand+rate > a.HeadroomKBps {
		return &OverCapacityError{Reason: "headroom", DemandKBps: demand + rate, LimitKBps: a.HeadroomKBps}
	}
	return nil
}

// OpenConfig parameterizes an open-system run.
type OpenConfig struct {
	// Cell is the engine configuration. A bounded run reads Cell.Link when
	// it is set — and then admits no session mid-run, because the
	// horizon-shaped table cannot follow admissions — and otherwise the
	// window TileSlots shapes; an unbounded run refuses a Link.
	// For churn-driven runs set Cell.RunFullHorizon: without it the
	// engine's early exit declares the run over the moment every
	// *currently admitted* session finishes, wedging later arrivals.
	Cell Config
	// Unbounded serves indefinitely: AdvanceTo extends the slot horizon
	// on demand (Cell.MaxSlots only sets the initial clock) and the run
	// records totals only, whatever Cell.Record asks. Requires
	// Cell.RunFullHorizon, forbids Cell.Record = RecordUserSlots, and every
	// session must be memory-bounded: a stateless signal trace (no
	// signal.Prewarmer memo) and zero RateJitter.
	Unbounded bool
	// MaxSessions caps concurrent in-service sessions (the admission
	// controller's first check) and sizes the link window's rows; it must
	// be positive.
	MaxSessions int
	// TileSlots is the length of one block of the engine's link window
	// (linkwindow.go), whose blocks hold TileSlots slots × MaxSessions
	// rows, computed a block ahead and aliased by the slot columns. 0
	// selects 256 for an unbounded run and, for a bounded one, the closed
	// rule under Cell.LinkTileSlots (closedSpan: ⌈LinkTileSlots/2⌉, 256
	// without a tile, capped at the horizon). A run whose fills are big
	// enough to be handed to the background holds two blocks until its
	// first mid-run admission, and fills in place from then on.
	TileSlots int
	// OnSlot, when set, gets every slot's totals as the tick reduces them,
	// in slot order, on AdvanceTo's goroutine: a caller folds its own
	// series there (the fleet's per-epoch totals), not from PerSlot.
	OnSlot func(n int, st SlotTotals)
}

// OpenStats are the open-system run's cumulative counters.
type OpenStats struct {
	// Slot is the next slot the engine will tick.
	Slot int
	// InService counts admitted sessions not yet ended (live + pending).
	InService int
	// TableLen and FreeSlots describe the session table: occupied slots
	// are TableLen − FreeSlots.
	TableLen, FreeSlots int
	// Admitted/Rejected/Departed/Completed count sessions over the whole
	// run: admissions (initial population included), typed over-capacity
	// rejections, explicit departures, and natural completions.
	Admitted, Rejected, Departed, Completed int
	// Ended totals fold every ended session's lifetime records — the
	// aggregates that survive slot compaction.
	EndedEnergy      units.MJ
	EndedRebuffer    units.Seconds
	EndedDeliveredKB units.KB
	// DemandKBps is the summed required rate of in-service sessions (the
	// headroom check's live side).
	DemandKBps units.KBps
}

// OpenSim is the open-system engine. It is not safe for concurrent use;
// Admit/DepartSerial mutate engine state and must only be called between
// AdvanceTo calls (slot boundaries), never concurrently with one.
type OpenSim struct {
	eng *Simulator

	adm       Admission
	unbounded bool
	// rows is the scheduler's per-row state, when it keeps any: a reused
	// row is reset for its new session and compaction moves it along.
	rows sched.RowState

	// freelist holds freed table slots sorted descending, so popping the
	// tail both reuses the lowest index first (stable, test-pinned
	// behaviour) and keeps the backing array anchored — the old
	// head-slicing pop made the array creep one slot per reuse and forced
	// a reallocation every O(cap) churn cycles. A reap frees its batch in
	// one merge.
	freelist []int
	// serials holds each table slot's admission serial; nil until an
	// admission or compaction, while slot i's is i+1 (serial).
	serials []uint64
	lastSer uint64
	// bySerial maps in-service admission serials to table slots. slotOf
	// builds it on the first miss; a closed fleet site never needs it.
	bySerial map[uint64]int
	// owned marks table slots whose *workload.Session is an engine-owned
	// clone (mid-run admissions): those are recycled through sessPool at
	// fold time instead of garbage-collected, so the churn steady state
	// allocates no session per admit. Initial sessions are caller-owned.
	owned    []bool
	sessPool []*workload.Session
	remap    []int // compaction scratch: old table slot → new (-1 = freed)

	windowStart int                   // first slot of the live metric window
	rebuf       *metrics.WindowedHist // ended sessions' lifetime rebuffering

	stats   OpenStats
	started bool
}

const (
	// An unbounded run's metric windows: openWindowSlots slots each, the
	// last openWindows retained.
	openWindowSlots = 256
	openWindows     = 4
	// The rebuffering histogram: 64 auto-widening bins, max(τ, 1) s wide.
	rebufHistBins = 64
)

// NewOpen builds an open-system engine over the initial session
// population (which may be empty) and scheduler. The initial sessions
// are admitted through the same controller mid-run arrivals face, so an
// over-capacity initial population fails construction with the typed
// error.
func NewOpen(cfg OpenConfig, initial []*workload.Session, s sched.Scheduler) (*OpenSim, error) {
	cc := cfg.Cell
	if cfg.Unbounded {
		if cc.Link != nil {
			return nil, fmt.Errorf("cell: unbounded open mode cannot read a link table (Link)")
		}
		if !cc.RunFullHorizon {
			return nil, fmt.Errorf("cell: unbounded open mode requires RunFullHorizon")
		}
		if cc.Record == RecordUserSlots {
			return nil, fmt.Errorf("cell: unbounded open mode cannot record per-user slot samples")
		}
		cc.Record = RecordTotals
	}
	if cfg.MaxSessions <= 0 {
		return nil, fmt.Errorf("cell: open mode needs a positive session cap (MaxSessions), got %d", cfg.MaxSessions)
	}
	if cfg.TileSlots < 0 {
		return nil, fmt.Errorf("cell: negative open tile window %d", cfg.TileSlots)
	}
	if len(initial) == 0 && !cc.RunFullHorizon {
		// With no sessions admitted the early exit would declare the run
		// over on the first tick, before any arrival gets in.
		return nil, fmt.Errorf("cell: an empty initial population requires RunFullHorizon")
	}
	o := &OpenSim{
		adm:       NewAdmission(cfg.MaxSessions, 0, cc.Capacity),
		unbounded: cfg.Unbounded,
	}
	o.rows, _ = s.(sched.RowState)
	var err error
	if o.rebuf, err = metrics.NewWindowedHist(openWindows, rebufHistBins, max(float64(cc.Tau), 1)); err != nil {
		return nil, err
	}

	// Vet the initial population through the same admission controller a
	// mid-run arrival faces.
	var demand units.KBps
	for i, sess := range initial {
		if err := o.adm.Check(i, demand, sess.BaseRate); err != nil {
			return nil, fmt.Errorf("cell: initial session %d: %w", i, err)
		}
		if err := o.vetSession(sess); err != nil {
			return nil, err
		}
		demand += sess.BaseRate
	}
	eng, err := newSim(cc, slices.Clone(initial), s, &cfg) // fold and compaction write the engine's copy
	if err != nil {
		return nil, err
	}
	o.eng = eng
	// Non-nil, so the engine logs retirements; sized once for a reap batch
	// of the whole initial population.
	eng.retiredLog = make([]int, 0, len(initial))
	eng.foldSlot = cfg.OnSlot
	o.owned = make([]bool, len(initial))
	o.lastSer = uint64(len(initial))
	o.stats.Admitted = len(initial)
	o.stats.InService = len(initial)
	o.stats.DemandKBps = demand
	return o, nil
}

// vetSession enforces the unbounded mode's bounded-memory contract.
func (o *OpenSim) vetSession(sess *workload.Session) error {
	if !o.unbounded {
		return nil
	}
	if _, memoized := sess.Signal.(signal.Prewarmer); memoized {
		return fmt.Errorf("cell: unbounded open mode requires stateless signal traces (session %d has a memoizing trace)", sess.ID)
	}
	if sess.RateJitter != 0 {
		return fmt.Errorf("cell: unbounded open mode forbids VBR sessions (session %d has rate jitter)", sess.ID)
	}
	return nil
}

// Start begins the run. Like the closed engine, an OpenSim is
// single-use.
func (o *OpenSim) Start(ctx context.Context) error {
	if err := o.eng.Start(ctx); err != nil {
		return err
	}
	o.started = true
	return nil
}

// Admit adds a session mid-run, allocating its table slot from the
// free-list (compacted departures) or growing the table. The session's
// StartSlot is clamped to the current clock — arrivals cannot start in
// the past — and may be in the future. Returns the assigned user index,
// or a typed *OverCapacityError (matching ErrOverCapacity) when the
// admission controller refuses. Call only between AdvanceTo calls.
func (o *OpenSim) Admit(sess *workload.Session) (int, error) {
	if !o.started {
		return 0, fmt.Errorf("cell: Admit before Start")
	}
	if o.eng.stepDone && !o.unbounded {
		return 0, fmt.Errorf("cell: engine finished (set RunFullHorizon for churn-driven runs)")
	}
	if o.eng.win.table != nil {
		return 0, fmt.Errorf("cell: a run over a link table (Link) admits no session mid-run")
	}
	if o.eng.cfg.Record == RecordUserSlots {
		return 0, fmt.Errorf("cell: mid-run admission is incompatible with RecordUserSlots (table slots are reused)")
	}
	if err := o.adm.Check(o.stats.InService, o.stats.DemandKBps, sess.BaseRate); err != nil {
		o.stats.Rejected++
		return 0, err
	}
	if err := o.vetSession(sess); err != nil {
		return 0, err
	}
	// Prefer a freed slot; when none is free and the table is at the
	// session cap, reap retired-but-unreclaimed sessions before growing.
	if len(o.freelist) == 0 && len(o.eng.users) >= o.adm.MaxSessions {
		o.reap()
	}
	s := o.eng
	idx, reuse := len(s.users), len(o.freelist) > 0
	if reuse {
		// The tail of the descending-sorted freelist is the lowest free
		// slot: lowest-first reuse without moving the array's head.
		idx = o.freelist[len(o.freelist)-1]
		o.freelist = o.freelist[:len(o.freelist)-1]
	} else if idx >= o.adm.MaxSessions {
		// The link window's slot-major layout is sized for MaxSessions
		// rows; it cannot grow past the cap even transiently.
		o.stats.Rejected++
		return 0, &OverCapacityError{Reason: "session-cap", InService: o.stats.InService, MaxSessions: o.adm.MaxSessions}
	}
	// Clone into a pooled session (recycled at fold) so sustained churn
	// admits without allocating; the caller keeps ownership of sess. The
	// window registers the row first, which waits out any background fill:
	// nothing reads the sessions written from here on.
	var clone *workload.Session
	if n := len(o.sessPool); n > 0 {
		clone = o.sessPool[n-1]
		o.sessPool = o.sessPool[:n-1]
	} else {
		clone = new(workload.Session)
	}
	s.win.admitRow(idx, clone)
	*clone = *sess
	clone.StartSlot = max(sess.StartSlot, s.nextSlot)
	clone.ID = idx

	o.ownSerials()
	o.lastSer++
	if reuse {
		o.reuseSlot(idx, clone)
		o.serials[idx] = o.lastSer
		o.owned[idx] = true
	} else {
		o.appendSlot(clone)
		o.serials = append(o.serials, o.lastSer)
		o.owned = append(o.owned, true)
	}
	if o.bySerial != nil {
		o.bySerial[o.lastSer] = idx
	}
	if o.rows != nil {
		// Reused or appended, the row may still hold a departed session's
		// scheduler state: compaction truncates rows the scheduler keeps.
		o.rows.ResetRow(idx)
	}

	if !o.unbounded {
		// Bounded mode may carry memoized traces and VBR sessions: extend
		// their memos to the horizon like New does for the initial set.
		clone.Prewarm(s.cfg.MaxSlots)
	}
	if clone.RateJitter != 0 {
		s.win.widenRate()
	}
	if s.colsSlot == s.nextSlot {
		// The next slot's columns are already prepared (fused pass):
		// re-alias the static columns so they cover the grown table.
		s.attachSlotColumns(s.nextSlot)
	}
	o.insertPending(idx, clone.StartSlot)
	s.unfinished++
	o.stats.Admitted++
	o.stats.InService++
	o.stats.DemandKBps += clone.BaseRate
	return idx, nil
}

// reuseSlot resets table slot idx for a new session.
func (o *OpenSim) reuseSlot(idx int, sess *workload.Session) {
	s := o.eng
	s.sessions[idx] = sess
	s.users[idx] = userState{startSlot: int32(sess.StartSlot)}
	o.initBuffer(idx, sess)
	s.curRes.Users[idx] = UserTotals{CompletionSlot: -1}
	s.alloc[idx] = 0
	if s.abrCtls != nil {
		// Recycle the slot's controller: Reset returns it to NewController's
		// state (the rung index is the only mutable field), so reuse is
		// indistinguishable from a fresh allocation.
		if ctl := s.abrCtls[idx]; ctl != nil {
			ctl.Reset()
		} else {
			ctl, _ := abr.NewController(*s.cfg.ABR) // validated by Config.Validate
			s.abrCtls[idx] = ctl
		}
	}
}

// appendSlot grows every per-user array for one more session.
func (o *OpenSim) appendSlot(sess *workload.Session) {
	s := o.eng
	idx := len(s.users)
	s.sessions = append(s.sessions, sess)
	s.users = append(s.users, userState{startSlot: int32(sess.StartSlot)})
	o.initBuffer(idx, sess)
	s.alloc = append(s.alloc, 0)
	s.curRes.Users = append(s.curRes.Users, UserTotals{CompletionSlot: -1})
	c := &s.cols
	c.Active = append(c.Active, false)
	c.BufferSec = append(c.BufferSec, 0)
	c.RemainingKB = append(c.RemainingKB, 0)
	c.TailGap = append(c.TailGap, 0)
	c.NeverActive = append(c.NeverActive, false)
	c.MaxUnits = append(c.MaxUnits, 0)
	c.LinkRate = append(c.LinkRate, 0)
	c.EnergyPerKB = append(c.EnergyPerKB, 0)
	s.epkbAlt = append(s.epkbAlt, 0)
	s.luCol = append(s.luCol, 0)
	if s.cfg.ABR != nil {
		// Under ABR the Rate column is engine-owned; Sig aliases the link
		// window.
		c.Rate = append(c.Rate, 0)
	}
	if s.abrCtls != nil {
		ctl, _ := abr.NewController(*s.cfg.ABR) // validated by Config.Validate
		s.abrCtls = append(s.abrCtls, ctl)
	}
}

// initBuffer (re)initializes user idx's playout buffer for sess.
func (o *OpenSim) initBuffer(idx int, sess *workload.Session) {
	s := o.eng
	u := &s.users[idx]
	if s.cfg.ABR != nil {
		_ = u.buf.InitSeconds(sess.Duration())
	} else {
		_ = u.buf.Init(sess.Size, sess.Duration())
	}
}

// compactPending rewinds the engine's pending list to the head of its
// backing array (admit drains it by advancing pendHead, not by
// re-slicing), so the open engine's inserts and removals below can treat
// it as a plain slice.
func (o *OpenSim) compactPending() {
	s := o.eng
	if s.pendHead > 0 {
		n := copy(s.pending, s.pending[s.pendHead:])
		s.pending = s.pending[:n]
		s.pendHead = 0
	}
}

// insertPending inserts idx into the pending list keeping the engine's
// (StartSlot, index) admission order.
func (o *OpenSim) insertPending(idx, start int) {
	o.compactPending()
	s := o.eng
	pos := len(s.pending)
	for k, j := range s.pending {
		js := int(s.users[j].startSlot)
		if js > start || (js == start && j > idx) {
			pos = k
			break
		}
	}
	s.pending = append(s.pending, 0)
	copy(s.pending[pos+1:], s.pending[pos:])
	s.pending[pos] = idx
}

// Serial returns the admission serial of the session resident in table
// slot id, or ok=false when the slot is free or the session has ended.
// Table slots are reused, so a caller holding an index across AdvanceTo
// calls must compare serials before acting on it — the session it meant
// may have completed and the slot may now host a different one.
func (o *OpenSim) Serial(id int) (uint64, bool) {
	if id < 0 || id >= len(o.eng.sessions) || o.eng.sessions[id] == nil {
		return 0, false
	}
	return o.serial(id), true
}

func (o *OpenSim) serial(id int) uint64 {
	if o.serials == nil {
		return uint64(id) + 1
	}
	return o.serials[id]
}

// ownSerials stores the serials before an admission or compaction moves one.
func (o *OpenSim) ownSerials() {
	if o.serials == nil {
		o.serials = make([]uint64, len(o.eng.sessions))
		for i := range o.serials {
			o.serials[i] = uint64(i) + 1
		}
	}
}

// DepartSerial departs the session with admission serial ser if it is
// still in service, guarded against slot reuse. It reports whether a
// departure happened; a stale serial (the session already ended, and
// possibly a new one moved into its slot) is a no-op, not an error —
// exactly what a churn driver wants when a planned abandonment races a
// natural completion. The serial is looked up (slotOf), so the call
// stays correct even after resident-set compaction moves the session to
// a different table slot; id is the caller's last known slot, tried
// first.
func (o *OpenSim) DepartSerial(id int, ser uint64) (bool, error) {
	idx, ok := o.slotOf(id, ser)
	if !ok {
		return false, nil
	}
	if err := o.depart(idx); err != nil {
		return false, err
	}
	return true, nil
}

// slotOf returns the table slot of the in-service session with admission
// serial ser: id, when that slot still holds it, or else the serial
// index's entry, building the index on the first miss.
func (o *OpenSim) slotOf(id int, ser uint64) (int, bool) {
	if got, ok := o.Serial(id); ok && got == ser {
		return id, true
	}
	if o.bySerial == nil {
		o.bySerial = make(map[uint64]int, o.adm.MaxSessions+len(o.eng.sessions))
		for i := range o.eng.sessions {
			if s, ok := o.Serial(i); ok {
				o.bySerial[s] = i
			}
		}
	}
	idx, ok := o.bySerial[ser]
	return idx, ok
}

// depart removes session id mid-run: its lifetime totals are folded into
// the streaming aggregates and its table slot is freed for reuse. Call
// only between AdvanceTo calls. Departing an already-ended session is an
// error.
func (o *OpenSim) depart(id int) error {
	if !o.started {
		return fmt.Errorf("cell: depart before Start")
	}
	s := o.eng
	if id < 0 || id >= len(s.users) || s.sessions[id] == nil {
		return fmt.Errorf("cell: depart of unknown or ended session %d", id)
	}
	u := &s.users[id]
	wasRetired := u.retired
	if !wasRetired {
		// An in-flight (or pending) session leaves: it will never finish.
		if !u.buf.PlaybackComplete() {
			s.unfinished--
		}
		o.compactPending()
		s.pending = removeValue(s.pending, id)
		s.live = removeSortedValue(s.live, id)
		u.retired = true
		s.win.dropRow(id)
		// Zero the dynamic columns and allocation so a stale Active flag
		// can never leak into a later slot (mirrors dropRetired).
		c := &s.cols
		c.Active[id] = false
		c.BufferSec[id] = 0
		c.RemainingKB[id] = 0
		c.TailGap[id] = 0
		c.NeverActive[id] = false
		c.MaxUnits[id] = 0
		s.alloc[id] = 0
		if s.colsSlot == s.nextSlot {
			// The fused pass prepared the next slot with this user possibly
			// active: splice it out of the prepared active list.
			s.activeBuf = removeSortedValue(s.activeBuf, id)
		}
	}
	// A session the engine already retired finished its work; departing
	// it merely reaps early, so it still counts as completed.
	o.fold(id, wasRetired)
	o.freelist = mergeSortedDesc(o.freelist, []int{id})
	return nil
}

// fold records session id's lifetime totals into the streaming
// aggregates. A caller that frees the table slot merges it into the
// freelist. completed selects the natural-completion counters; otherwise
// the session is counted as departed.
func (o *OpenSim) fold(id int, completed bool) {
	s := o.eng
	ru := &s.curRes.Users[id]
	o.rebuf.Observe(float64(ru.Rebuffer))
	o.stats.EndedEnergy += ru.Energy()
	o.stats.EndedRebuffer += ru.Rebuffer
	o.stats.EndedDeliveredKB += ru.DeliveredKB
	if completed {
		o.stats.Completed++
	} else {
		o.stats.Departed++
	}
	o.stats.InService--
	o.stats.DemandKBps -= s.sessions[id].BaseRate
	delete(o.bySerial, o.serial(id))
	if o.owned[id] {
		// Pooled for the next Admit to reuse instead of allocating. No
		// background fill reads it: the window has filled in place since
		// the first admission (admitRow).
		o.sessPool = append(o.sessPool, s.sessions[id])
		o.owned[id] = false
	}
	s.sessions[id] = nil
}

// reap folds the sessions the engine retired (playback + delivery
// complete, tail drained) since the last call, in table order, freeing
// their slots. The engine logs whom it retires, so the cost follows the
// completions, not the table.
func (o *OpenSim) reap() {
	s := o.eng
	if len(s.retiredLog) == 0 {
		return
	}
	// Ascending per slot; an AdvanceTo over several slots concatenates
	// several such runs. The log keeps the folded ones, in place, for the
	// freelist's one merge.
	slices.Sort(s.retiredLog)
	ended := s.retiredLog[:0]
	for _, i := range s.retiredLog {
		if s.sessions[i] != nil {
			o.fold(i, true)
			ended = append(ended, i)
		}
	}
	o.freelist = mergeSortedDesc(o.freelist, ended)
	s.retiredLog = s.retiredLog[:0]
}

// AdvanceTo ticks the engine up to (but not including) slot upto and
// reaps completed sessions. In unbounded mode the horizon extends
// automatically, the metric windows the clock crossed rotate, and done is
// never true; in bounded mode done reports the closed engine's condition
// (horizon reached, or — without RunFullHorizon — every session
// finished).
func (o *OpenSim) AdvanceTo(upto int) (bool, error) {
	if !o.started {
		return false, fmt.Errorf("cell: AdvanceTo before Start")
	}
	if o.unbounded && upto >= o.eng.cfg.MaxSlots {
		// Extend the horizon with a window of headroom. RunFullHorizon is
		// required in unbounded mode, so a stepDone here can only mean the
		// old horizon was reached — clear it and keep serving.
		o.eng.cfg.MaxSlots = upto + openWindowSlots
		o.eng.stepDone = false
	}
	// One fill for every row admitted since the last call, before anything
	// reads them.
	o.eng.win.flush(o.eng.nextSlot)
	done, err := o.eng.Advance(upto)
	if err != nil {
		return done, err
	}
	o.reap()
	if o.unbounded {
		o.rotateWindows()
		o.maybeCompact()
		done = false
	}
	return done, nil
}

// rotateWindows closes every whole metric window the clock has passed. A
// bounded run never rotates: its session window spans the run.
func (o *OpenSim) rotateWindows() {
	for o.eng.nextSlot >= o.windowStart+openWindowSlots {
		o.rebuf.Rotate()
		o.windowStart += openWindowSlots
	}
}

// RebufferQuantile returns the q-th quantile of session-lifetime
// rebuffering over the retained windows (sessions ended in them).
func (o *OpenSim) RebufferQuantile(q float64) float64 { return o.rebuf.Quantile(q) }

// Stats returns the cumulative open-run counters.
func (o *OpenSim) Stats() OpenStats {
	st := o.stats
	st.Slot = o.eng.nextSlot
	st.TableLen = len(o.eng.users)
	st.FreeSlots = len(o.freelist)
	return st
}

// Finish folds every session still in service (a run can end with
// playback complete but RRC tails undrained, which never engine-retires
// the user — those count as completed; truly unfinished ones count as
// departed) — their table slots are not freed, as nothing admits after
// Finish — then finalizes and returns the engine Result. In bounded
// mode with no mid-run churn the Result is byte-identical to
// Simulator.Run on the same inputs; in unbounded mode it carries no
// PerSlot and per-user entries of reused table slots describe only their
// latest session.
func (o *OpenSim) Finish() *Result {
	o.Stop()
	s := o.eng
	for i := range s.users {
		if s.sessions[i] != nil {
			o.fold(i, s.users[i].buf.PlaybackComplete())
		}
	}
	return s.Finish()
}

// Run is a whole run in one call: Start, AdvanceTo the horizon (Cell.MaxSlots)
// and Finish. A cancelled ctx stops it within one slot with ctx.Err() in
// the chain; a failed run is stopped, so no goroutine outlives it.
func (o *OpenSim) Run(ctx context.Context) (*Result, error) {
	if err := o.Start(ctx); err != nil {
		return nil, err
	}
	if _, err := o.AdvanceTo(o.eng.cfg.MaxSlots); err != nil {
		o.Stop()
		return nil, err
	}
	return o.Finish(), nil
}

// Stop waits out the link window's background fill, has it start no more
// and gives back or lets go the window's blocks (idempotent). Finish calls
// it, and so does an AdvanceTo that fails; a driver abandoning a healthy
// sim calls it so no goroutine outlives the run.
func (o *OpenSim) Stop() { o.eng.win.stop() }

// compactMinTable is the smallest session table resident-set compaction
// bothers with: below it the dense kernels' serial cutoff makes the
// sparse path cheap anyway.
const compactMinTable = 64

// maybeCompact shrinks the session table when churn has left it mostly
// holes: with fewer than half the slots live, freed rows are compacted
// out so the resident set is an identity prefix again and the dense
// column kernels re-engage. Unbounded mode only — a bounded run's
// Result is indexed by table slot and must stay byte-identical to the
// closed engine's.
func (o *OpenSim) maybeCompact() {
	n := len(o.eng.users)
	if n < compactMinTable || 2*(n-len(o.freelist)) >= n {
		return
	}
	o.compact()
}

// compact moves every live session down over the freed slots, keeping
// relative order (so the live and pending lists stay sorted under the
// monotone remap), truncates the per-user arrays, moves the scheduler's
// per-row state along, and invalidates the link window so its next block
// fills over the dense identity row set.
func (o *OpenSim) compact() {
	s := o.eng
	o.ownSerials()
	o.compactPending()
	if cap(o.remap) < len(s.users) {
		o.remap = make([]int, len(s.users))
	}
	remap := o.remap[:len(s.users)]
	reattach := s.colsSlot == s.nextSlot
	c := &s.cols
	w := 0
	for i := range s.users {
		if s.sessions[i] == nil {
			remap[i] = -1
			continue
		}
		remap[i] = w
		if w != i {
			s.sessions[w] = s.sessions[i]
			s.sessions[w].ID = w
			s.users[w] = s.users[i]
			s.alloc[w] = s.alloc[i]
			s.curRes.Users[w] = s.curRes.Users[i]
			o.serials[w] = o.serials[i]
			o.owned[w] = o.owned[i]
			c.Active[w] = c.Active[i]
			c.BufferSec[w] = c.BufferSec[i]
			c.RemainingKB[w] = c.RemainingKB[i]
			c.TailGap[w] = c.TailGap[i]
			c.NeverActive[w] = c.NeverActive[i]
			c.MaxUnits[w] = c.MaxUnits[i]
			c.LinkRate[w] = c.LinkRate[i]
			c.EnergyPerKB[w] = c.EnergyPerKB[i]
			s.luCol[w] = s.luCol[i]
			if s.cfg.ABR != nil {
				c.Rate[w] = c.Rate[i]
			}
			if s.abrCtls != nil {
				s.abrCtls[w] = s.abrCtls[i]
			}
			if o.rows != nil {
				o.rows.MoveRow(i, w)
			}
		}
		if o.bySerial != nil {
			o.bySerial[o.serials[w]] = w
		}
		w++
	}
	s.sessions = s.sessions[:w]
	s.users = s.users[:w]
	s.alloc = s.alloc[:w]
	s.curRes.Users = s.curRes.Users[:w]
	o.serials = o.serials[:w]
	o.owned = o.owned[:w]
	c.Active = c.Active[:w]
	c.BufferSec = c.BufferSec[:w]
	c.RemainingKB = c.RemainingKB[:w]
	c.TailGap = c.TailGap[:w]
	c.NeverActive = c.NeverActive[:w]
	c.MaxUnits = c.MaxUnits[:w]
	c.LinkRate = c.LinkRate[:w]
	c.EnergyPerKB = c.EnergyPerKB[:w]
	s.epkbAlt = s.epkbAlt[:w]
	s.luCol = s.luCol[:w]
	if s.cfg.ABR != nil {
		c.Rate = c.Rate[:w]
	}
	if s.abrCtls != nil {
		s.abrCtls = s.abrCtls[:w]
	}
	o.freelist = o.freelist[:0]
	// The remap is monotone, so in-place rewrites keep both lists sorted
	// in the engine's (StartSlot, index) and ascending orders.
	for k, id := range s.live {
		s.live[k] = remap[id]
	}
	for k, id := range s.pending {
		s.pending[k] = remap[id]
	}
	if reattach {
		for k, id := range s.activeBuf {
			s.activeBuf[k] = remap[id]
		}
	} else {
		s.activeBuf = s.activeBuf[:0]
	}
	s.win.compactRows(s.sessions)
	if reattach {
		// The fused pass already prepared the next slot: re-alias the
		// static columns over the compacted (and freshly refilled) window
		// rows.
		s.attachSlotColumns(s.nextSlot)
	}
}

// removeValue deletes the first occurrence of v from xs (order kept).
func removeValue(xs []int, v int) []int {
	for k, x := range xs {
		if x == v {
			copy(xs[k:], xs[k+1:])
			return xs[:len(xs)-1]
		}
	}
	return xs
}

// mergeSortedDesc merges ascending add into descending xs in place, from
// the back: the smallest entries sit at the tail, so only those below
// add's largest move. The two lists are disjoint.
func mergeSortedDesc(xs, add []int) []int {
	i := len(xs) - 1
	xs = append(xs, add...)
	for w, j := len(xs)-1, 0; j < len(add); w-- {
		if i >= 0 && xs[i] < add[j] {
			xs[w] = xs[i]
			i--
		} else {
			xs[w] = add[j]
			j++
		}
	}
	return xs
}

// removeSortedValue deletes v from ascending-sorted xs if present.
func removeSortedValue(xs []int, v int) []int {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := (lo + hi) / 2
		if xs[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(xs) && xs[lo] == v {
		copy(xs[lo:], xs[lo+1:])
		return xs[:len(xs)-1]
	}
	return xs
}
