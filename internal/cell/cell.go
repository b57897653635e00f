// Package cell implements the slotted base-station simulator that drives
// the paper's evaluation: each slot it assembles the cross-layer view of
// every user (signal, throughput, per-byte price, required rate, buffer
// level, RRC tail state), asks the configured Scheduler for the data-unit
// allocation, applies the physics — transmission energy Eq. (3), tail
// energy Eq. (4), buffer recursion Eq. (7), rebuffering Eq. (8) — and
// accumulates per-slot and per-user records for the metrics layer.
package cell

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"sort"

	"jointstream/internal/abr"
	"jointstream/internal/playback"
	"jointstream/internal/radio"
	"jointstream/internal/rrc"
	"jointstream/internal/sched"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// Config parameterizes one simulation run.
type Config struct {
	// Tau is the slot length τ (1 s in the paper).
	Tau units.Seconds
	// Unit is the data-unit size δ in KB.
	Unit units.KB
	// Capacity is the base-station serving capacity S (20 MB/s in §VI).
	Capacity units.KBps
	// MaxSlots caps the run (10000 in §VI). The run ends earlier once
	// every user finished playback, unless RunFullHorizon is set.
	MaxSlots int
	// RunFullHorizon keeps simulating to MaxSlots even after all sessions
	// complete (matching a fixed Γ accounting).
	RunFullHorizon bool
	// Radio is the throughput/power model (Eq. 24).
	Radio radio.Model
	// RRC is the tail-energy profile (Eq. 4).
	RRC rrc.Profile
	// Strict makes the simulator fail the run if the scheduler violates
	// Eq. (1)/(2) instead of silently clamping. Tests enable it.
	Strict bool
	// Record is what a run keeps beside its totals: PerSlot by default
	// (RecordSlots), nothing (RecordTotals), or PerSlot and the per-user
	// samples the CDF figures (2, 3, 6, 7) read (RecordUserSlots).
	Record RecordLevel
	// ABR, when non-nil, replaces every session's fixed required rate
	// with a buffer-based adaptive-bitrate player (internal/abr): each
	// slot the player picks p_i(n) from its ladder based on buffer
	// occupancy, and the video becomes a fixed content duration rather
	// than a fixed byte size.
	ABR *abr.Config
	// Workers bounds the goroutines of the tick path's prepare and commit
	// phases (and of session prewarming): 0 selects GOMAXPROCS, 1 forces
	// the serial path. The phases reduce per-shard partial sums in shard
	// order, so any worker count produces a byte-identical Result — see
	// DESIGN.md §4, "Sharded tick path".
	Workers int
	// ShardSize overrides the per-shard user count of the tick path's
	// shard layout (0 selects the default of 256). The shard layout — a
	// function of the live-user count only, never of Workers — is the
	// only thing that affects floating-point summation grouping, so tests
	// shrink it to exercise multi-shard reduction at small N.
	ShardSize int
	// Link, when non-nil, is a precompiled link table (CompileLink) the
	// run reads instead of compiling its own — the experiment harness
	// compiles one per scenario and shares it across every scheduler run.
	// It must have been compiled from the same sessions; New rejects
	// mismatched user counts, horizons and rows. It holds signals and
	// rates only, so the run's physics come from the run's own Radio, Tau
	// and Unit whatever the table was compiled under. A bounded open run
	// reads it too, and then admits no session mid-run; an unbounded one
	// refuses it. Without one, the run slides its own link window
	// (LinkTileSlots).
	Link *LinkTable
	// LinkTileSlots sizes the run's own sliding link window
	// (linkwindow.go): two blocks of ⌈LinkTileSlots/2⌉ slots each (256
	// when 0), capped at MaxSlots, ticking one while the next fills into
	// the other (in the background when the fill is big enough to be worth
	// handing off; in place otherwise, into one block it borrows only
	// while the run ticks). The link state is about users × LinkTileSlots
	// rows (8 bytes each: signal; plus one rate row per block, or per slot
	// under rate jitter) no matter the horizon. Results are byte-identical
	// to RunReference's (differentially asserted). Ignored when a
	// caller-supplied Link is present. A bounded open run with
	// OpenConfig.TileSlots 0 takes the same rule (closedSpan); an explicit
	// TileSlots, or an unbounded run, ignores it.
	LinkTileSlots int
	// Outages lists base-station outage windows: during each [From, To)
	// slot range the serving capacity is zero, no allocation happens, and
	// every session degrades gracefully (buffers drain, rebuffering and
	// tail energy accrue per the usual physics). Sessions are re-admitted
	// automatically when capacity returns — the engine's live list never
	// drops a user over an outage. Result.DegradedSlots counts the slots
	// the run actually spent inside a window.
	Outages []Outage
}

// RecordLevel is what a run records beside its totals (Config.Record).
type RecordLevel uint8

const (
	// RecordSlots keeps Result.PerSlot, one SlotTotals a slot: the zero
	// value.
	RecordSlots RecordLevel = iota
	// RecordTotals keeps the per-user and run totals only: no per-slot
	// series is allocated or appended, so a run's result memory does not
	// grow with the horizon.
	RecordTotals
	// RecordUserSlots keeps PerSlot and the per-user per-slot samples
	// (Result.RebufferSamples, EnergySamples).
	RecordUserSlots
)

// Outage is one capacity-zero window over slots [From, To).
type Outage struct {
	From, To int
}

// contains reports whether slot n falls inside the window.
func (o Outage) contains(n int) bool { return n >= o.From && n < o.To }

// PaperConfig returns the §VI defaults: τ = 1 s, S = 20 MB/s, 10000-slot
// horizon, 3G radio and RRC models, δ = 100 KB.
func PaperConfig() Config {
	return Config{
		Tau:      1,
		Unit:     100,
		Capacity: 20 * units.KBps(units.Megabyte),
		MaxSlots: 10000,
		Radio:    radio.Paper3G(),
		RRC:      rrc.Paper3G(),
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Tau <= 0 {
		return fmt.Errorf("cell: non-positive slot length %v", c.Tau)
	}
	if c.Unit <= 0 {
		return fmt.Errorf("cell: non-positive unit size %v", c.Unit)
	}
	if c.Capacity <= 0 {
		return fmt.Errorf("cell: non-positive capacity %v", c.Capacity)
	}
	if c.MaxSlots <= 0 {
		return fmt.Errorf("cell: non-positive slot cap %d", c.MaxSlots)
	}
	if c.Radio.Throughput == nil || c.Radio.Power == nil {
		return fmt.Errorf("cell: radio model not fully specified")
	}
	if c.Workers < 0 {
		return fmt.Errorf("cell: negative worker count %d", c.Workers)
	}
	if c.ShardSize < 0 {
		return fmt.Errorf("cell: negative shard size %d", c.ShardSize)
	}
	if c.LinkTileSlots < 0 {
		return fmt.Errorf("cell: negative link tile window %d", c.LinkTileSlots)
	}
	if c.ABR != nil {
		if err := c.ABR.Validate(); err != nil {
			return err
		}
	}
	for i, o := range c.Outages {
		if o.From < 0 || o.To < o.From {
			return fmt.Errorf("cell: outage %d has invalid window [%d, %d)", i, o.From, o.To)
		}
	}
	return c.RRC.Validate()
}

// UserTotals aggregates one user's whole run.
type UserTotals struct {
	// DeliveredKB is the total data received.
	DeliveredKB units.KB
	// TransEnergy is Σ Eq. (3) over slots with a transfer.
	TransEnergy units.MJ
	// TailEnergy is Σ Eq. (4) increments over idle slots.
	TailEnergy units.MJ
	// Rebuffer is Σ c_i(n), the total stall time.
	Rebuffer units.Seconds
	// CompletionSlot is the slot at which playback finished, or -1.
	CompletionSlot int
	// ActiveSlots counts slots in which the user received data.
	ActiveSlots int
	// QualitySum accumulates the selected bitrate (KB/s) over the slots
	// in which the session was playing; with ABR enabled,
	// QualitySum/QualitySlots is the mean delivered quality.
	QualitySum   float64
	QualitySlots int
	// QualitySwitches counts slot-to-slot changes of the selected rate
	// while playing (nonzero only for ABR or VBR sessions).
	QualitySwitches int
}

// MeanQuality returns the average selected bitrate in KB/s (0 if the
// session never played).
func (u UserTotals) MeanQuality() units.KBps {
	if u.QualitySlots == 0 {
		return 0
	}
	return units.KBps(u.QualitySum / float64(u.QualitySlots))
}

// Energy returns the user's total energy (transmission + tail).
func (u UserTotals) Energy() units.MJ { return u.TransEnergy + u.TailEnergy }

// SlotTotals aggregates one slot across users.
type SlotTotals struct {
	// Fairness is the Jain index over the per-user satisfaction ratios
	// F_i = d_i/d_need (users with a need this slot only); NaN-free: 1.0
	// when no user had any need.
	Fairness float64
	// Energy is the total energy (trans+tail) across users this slot.
	Energy units.MJ
	// Rebuffer is Σ_i c_i(n).
	Rebuffer units.Seconds
	// UsedUnits is Σ_i ϕ_i(n).
	UsedUnits int
}

// Result is the outcome of one run.
type Result struct {
	// SchedulerName echoes the algorithm that produced the run.
	SchedulerName string
	// Slots is Γ, the number of simulated slots.
	Slots int
	// Users holds per-user totals.
	Users []UserTotals
	// PerSlot holds per-slot aggregates, one a slot; nil when the run
	// recorded totals only (Config.Record = RecordTotals).
	PerSlot []SlotTotals
	// RebufferSamples / EnergySamples / FairnessSamples are the raw
	// per-user-per-slot series for CDF figures; populated only when
	// Config.Record is RecordUserSlots. RebufferSamples[i][n] is c_i(n).
	RebufferSamples [][]float64
	EnergySamples   [][]float64
	// ClampEvents counts scheduler outputs the simulator had to clamp to
	// satisfy Eq. (1)/(2); always 0 for the built-in schedulers.
	ClampEvents int
	// DegradedSlots counts slots the run spent inside a Config.Outages
	// window (serving capacity forced to zero). Omitted from JSON when
	// zero so outage-free serialized results (the golden trace, figure
	// baselines) are byte-identical to pre-outage builds.
	DegradedSlots int `json:",omitempty"`

	// agg caches the run-level totals behind the metric accessors so
	// repeated calls (the experiment harness reads PE/PC/TotalEnergy many
	// times per figure) stop re-scanning Users. Nil until finalize runs;
	// the accessors fall back to a scan, so hand-built Results keep
	// working without it.
	agg *resultAgg
}

// resultAgg holds the Users-derived totals finalize caches.
type resultAgg struct {
	energy      units.MJ
	tailEnergy  units.MJ
	transEnergy units.MJ
	rebuffer    units.Seconds
	activeSlots int
}

// aggregate scans Users once, accumulating each total in index order —
// the same addition sequence the unmemoized accessors used, so cached
// and scanned values are bit-identical.
func aggregate(users []UserTotals) resultAgg {
	var a resultAgg
	for _, u := range users {
		a.energy += u.Energy()
		a.tailEnergy += u.TailEnergy
		a.transEnergy += u.TransEnergy
		a.rebuffer += u.Rebuffer
		a.activeSlots += u.ActiveSlots
	}
	return a
}

// finalize computes and caches the run-level totals the metric accessors
// serve. Run calls it on every result it returns; callers that build a
// Result by hand, or mutate Users afterwards, may call it (again) to
// refresh the cache.
func (r *Result) finalize() {
	a := aggregate(r.Users)
	r.agg = &a
}

// totals returns the cached aggregate, or scans Users when finalize has
// not run.
func (r *Result) totals() resultAgg {
	if r.agg != nil {
		return *r.agg
	}
	return aggregate(r.Users)
}

// PE returns the paper's average energy metric PE(Γ) = ΣΣE/(NΓ) in mJ.
func (r *Result) PE() units.MJ {
	if len(r.Users) == 0 || r.Slots == 0 {
		return 0
	}
	return r.totals().energy / units.MJ(len(r.Users)*r.Slots)
}

// PC returns the paper's average rebuffering metric PC(Γ) = ΣΣc/(NΓ) in
// seconds.
func (r *Result) PC() units.Seconds {
	if len(r.Users) == 0 || r.Slots == 0 {
		return 0
	}
	return r.totals().rebuffer / units.Seconds(float64(len(r.Users)*r.Slots))
}

// TotalEnergy returns the summed energy of all users (mJ).
func (r *Result) TotalEnergy() units.MJ {
	return r.totals().energy
}

// TotalTailEnergy returns the summed tail energy of all users (mJ).
func (r *Result) TotalTailEnergy() units.MJ {
	return r.totals().tailEnergy
}

// TransEnergyPerActiveSlot returns the mean transmission energy per
// user-slot that actually carried data, Σ E_trans / Σ active slots (mJ).
// The experiment harness uses it as the Eq. (12) reference energy
// E_Default when deriving RTMA's budget Φ = α·E_Default.
func (r *Result) TransEnergyPerActiveSlot() units.MJ {
	a := r.totals()
	if a.activeSlots == 0 {
		return 0
	}
	return a.transEnergy / units.MJ(a.activeSlots)
}

// TotalRebuffer returns the summed stall time of all users.
func (r *Result) TotalRebuffer() units.Seconds {
	return r.totals().rebuffer
}

// MeanRebufferPerUser returns TotalRebuffer / N.
func (r *Result) MeanRebufferPerUser() units.Seconds {
	if len(r.Users) == 0 {
		return 0
	}
	return r.TotalRebuffer() / units.Seconds(float64(len(r.Users)))
}

// MeanEnergyPerUser returns TotalEnergy / N in mJ.
func (r *Result) MeanEnergyPerUser() units.MJ {
	if len(r.Users) == 0 {
		return 0
	}
	return r.TotalEnergy() / units.MJ(len(r.Users))
}

// userState is the simulator's mutable per-user record. The playout
// buffer and RRC tail are embedded by value, so the whole per-user state
// lives in one flat array — no per-user heap objects for the garbage
// collector to chase and no pointer hop per field read in the tick path.
type userState struct {
	buf playback.Buffer
	// prevRate is the last playing slot's selected rate, for switch
	// counting; 0 until the first playing slot.
	prevRate units.KBps
	// tail is the user's RRC tail state. The profile is shared by every
	// user and lives once in Config.RRC; the commit phase prices an idle
	// slot with tail.IdleSlot(&cfg.RRC, τ).
	tail rrc.Tail
	// startSlot caches session.StartSlot so the per-slot phases never
	// chase the session pointer for the one field they need every slot.
	startSlot int32
	// retired marks a user the engine has dropped from the live list:
	// playback and delivery are complete and the RRC tail is drained, so
	// every remaining slot would contribute exactly zero to every total.
	retired bool
}

// defaultShardSize is the tick path's per-shard user count when
// Config.ShardSize is zero: small enough to load-balance across workers
// at 10k+ users, large enough that the paper-scale runs (N ≤ 40) stay a
// single shard and therefore reproduce the historical serial summation
// bit for bit.
const defaultShardSize = 256

// Simulator runs one scheduler over one workload.
type Simulator struct {
	cfg   Config
	sched sched.Scheduler
	// users is the flat per-user mutable state. It is deliberately
	// pointer-free (the GC never scans it); the per-user pointers live in
	// the parallel sessions/abrCtls slices, which the hot phases touch
	// only on the cold paths.
	users    []userState
	sessions []*workload.Session
	abrCtls  []*abr.Controller // nil unless Config.ABR is set
	// tailDrained caches cfg.RRC.TailDrainedAfter() for the per-slot
	// retirement scan.
	tailDrained units.Seconds

	// Per-slot scratch, allocated once in New and reused by every tick:
	// the scheduler's cross-layer view and the allocation vector.
	slot  sched.Slot
	alloc []int

	// cols is the slot's column storage (slot.Cols points at it for the
	// Simulator's whole life). The dynamic columns (Active, BufferSec,
	// RemainingKB, TailGap, NeverActive, MaxUnits) and the derived physics
	// (LinkRate, EnergyPerKB) are engine-owned arrays refreshed in place
	// each slot; Sig and Rate alias the link window's slot rows
	// (attachSlotColumns). With ABR the Rate column is engine-owned — the
	// player picks rates per slot, and the shared immutable table must
	// never be written through. RunReference swaps in private Sig and Rate
	// columns for the same reason.
	cols sched.Columns
	// link derives v, P and the Eq. (1) limit from the window's signals,
	// into LinkRate, EnergyPerKB and luCol.
	// epkbAlt is the second price column: the fused pass swaps the two, so
	// slot n+1's prices are derived beside slot n's, which its commit half
	// still reads (pinPrevColumns).
	link    *radio.Link
	luCol   []int32 // slot's Eq. (1) link-unit column
	epkbAlt []units.MJ

	// Engine state for the sharded active-list tick path (Run).
	workers   int // resolved Config.Workers (0 → GOMAXPROCS)
	shardSize int // resolved Config.ShardSize (0 → defaultShardSize)
	// win is the run's link window (linkwindow.go), whose slot rows Sig
	// and Rate alias: over a compiled LinkTable, a sliding one (under
	// Config.LinkTileSlots or past the table cap), or the open engine's
	// (newSim builds all three).
	win     *linkWindow
	live    []int // started, unretired users, ascending index
	pending []int // not-yet-started users, ordered by (StartSlot, index)
	// pendHead is the first undrained pending entry: admit advances it
	// instead of re-slicing pending's head, so the backing array never
	// creeps under churn (the open engine re-compacts before inserting).
	pendHead int
	// unfinished counts users that keep the run going: not started yet,
	// or started with playback incomplete. Zero means the old full-scan
	// loop's allDone condition holds.
	unfinished int
	// retiredLog lists the users dropRetired has taken off the live list
	// since the open engine last reaped (ascending within a slot). Kept only
	// when the open engine made it (non-nil): a closed run never folds, and
	// would only grow the log to N.
	retiredLog []int
	shardAcc   []slotAccum // per-shard partial sums (prepare, clamp and commit output)
	shardRet   [][]int     // per-shard live-list positions retired this slot (commit output)
	activeBuf  []int       // backing for slot.ActiveList, rebuilt per slot
	consumed   bool        // Run/RunReference already executed
	// capUnits is the nominal per-slot capacity in units; the engines
	// restore it after every outage slot zeroes slot.CapacityUnits.
	capUnits int
	// foldSlot, the open engine's OnSlot, receives every slot's totals as
	// the tick reduces them, so its caller's folds need no per-slot series.
	foldSlot func(n int, st SlotTotals)

	// Run-scoped state of the sharded engine, set by Start and consumed
	// by tickSlot and the shard bodies (engine.go). The shard bodies are
	// method values bound once per run so the slot loop never allocates a
	// closure; they read the per-slot parameters from these fields.
	curRes    *Result
	curSlot   int
	curShards int
	curLive   []int
	// curDense marks a slot whose live list is the identity [0, N): the
	// shard bodies then run the dense kernels (kernels.go) over contiguous
	// index ranges instead of gathering through the live list.
	curDense bool
	// colsSlot is the slot whose dynamic columns and active list are
	// already prepared (by the previous slot's fused commit+prepare pass),
	// or -1 when the next slot must run a standalone prepare phase.
	colsSlot int
	// prevEpkb/prevRate pin the *previous* slot's price and rate columns
	// across the fused pass: s.cols has already moved on to the next slot,
	// but the commit half of the pass must still price this slot's
	// deliveries with this slot's physics. prevEpkb is the price column
	// the swap retired; prevRate is a zero-copy alias of the resident rate
	// row, or of the engine-owned array under ABR (where the fused kernel
	// relies on its per-user read-commit-then-write-prepare order).
	prevEpkb []units.MJ
	prevRate []units.KBps
	// prevRateBuf is the copy fallback behind prevRate: when attaching
	// slot n+1 will evict the resident block (window crossing), aliasing
	// slot n's rate row would hand the fused pass memory the next fill is
	// overwriting, so pinPrevColumns copies it here first — an O(users)
	// copy once per window, not per slot. Allocated on first use, reused
	// after.
	prevRateBuf                            []units.KBps
	prepFn                                 func(int)
	commFn                                 func(int)
	fusedFn                                func(int)
	clampFn                                func(int)
	lblPrep, lblSched, lblCommit, lblFused context.Context

	// Stepped-run state (Start/Advance/Finish): the context bound at
	// Start and its Done channel for per-slot cancellation checks, the
	// running Advance's bound, the next slot to tick, and whether the run
	// already hit its end condition.
	stepCtx    context.Context
	stepDoneCh <-chan struct{}
	stepUpto   int
	nextSlot   int
	stepDone   bool
}

// outageAt reports whether slot n falls inside any configured outage
// window. The window list is small (a handful per run), so a linear
// scan beats maintaining an index.
func (s *Simulator) outageAt(n int) bool {
	for _, o := range s.cfg.Outages {
		if o.contains(n) {
			return true
		}
	}
	return false
}

// New builds a Simulator. The sessions' buffers and RRC tails are
// created fresh, so a Simulator must not be reused across runs — build a
// new one (schedulers with internal state must also be fresh).
func New(cfg Config, sessions []*workload.Session, s sched.Scheduler) (*Simulator, error) {
	return newSim(cfg, sessions, s, nil)
}

// closedSpan is the block length of a bounded run's own link window: two
// blocks of ⌈LinkTileSlots/2⌉ slots (tableBlockSlots without a tile),
// capped at MaxSlots.
func closedSpan(cfg Config) int {
	span := tableBlockSlots
	if cfg.LinkTileSlots > 0 {
		span = (cfg.LinkTileSlots + 1) / 2
	}
	return min(span, cfg.MaxSlots)
}

// newSim is New's implementation, and NewOpen's with open set: an open
// engine may start empty, and without a Link its window is shaped by open.
func newSim(cfg Config, sessions []*workload.Session, s sched.Scheduler, open *OpenConfig) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if s == nil {
		return nil, fmt.Errorf("cell: nil scheduler")
	}
	if len(sessions) == 0 && open == nil {
		return nil, fmt.Errorf("cell: no sessions")
	}
	sim := &Simulator{
		cfg: cfg, sched: s,
		users:    make([]userState, len(sessions)),
		sessions: sessions,
		// Config.Validate vetted the shared RRC profile above; every user
		// starts in IDLE with no transfer history (the rrc.Tail zero
		// value), which the zeroed users array already encodes.
		tailDrained: cfg.RRC.TailDrainedAfter(),
	}
	if cfg.ABR != nil {
		sim.abrCtls = make([]*abr.Controller, len(sessions))
	}
	for i, sess := range sessions {
		if sess.ID != i {
			return nil, fmt.Errorf("cell: session %d has ID %d; IDs must be dense", i, sess.ID)
		}
		u := &sim.users[i]
		u.startSlot = int32(sess.StartSlot)
		var err error
		if cfg.ABR != nil {
			err = u.buf.InitSeconds(sess.Duration())
		} else {
			err = u.buf.Init(sess.Size, sess.Duration())
		}
		if err != nil {
			return nil, fmt.Errorf("cell: user %d buffer: %w", i, err)
		}
		if cfg.ABR != nil {
			ctl, err := abr.NewController(*cfg.ABR)
			if err != nil {
				return nil, err
			}
			sim.abrCtls[i] = ctl
		}
	}
	sim.workers = cfg.Workers
	if sim.workers == 0 {
		sim.workers = runtime.GOMAXPROCS(0)
	}
	sim.shardSize = cfg.ShardSize
	if sim.shardSize == 0 {
		sim.shardSize = defaultShardSize
	}
	// Attach the link window the tick path reads its rows from: over a
	// caller-supplied table, validated against this run's shape; or the
	// run's own sliding one, of open.TileSlots-slot blocks when set,
	// closedSpan's otherwise — 256-slot and never clamped by a horizon in
	// an unbounded run, whose sessions are stateless (vetSession). A
	// bounded run's fills stop at the prewarmed horizon.
	span, rows, horizon := closedSpan(cfg), len(sessions), cfg.MaxSlots
	if open != nil {
		if open.Unbounded {
			span, horizon = tableBlockSlots, -1
		}
		span, rows = cmp.Or(open.TileSlots, span), open.MaxSessions
	}
	var err error
	if lt := cfg.Link; lt != nil {
		if err = lt.compatible(cfg, sessions); err != nil {
			return nil, err
		}
		// A table run reads its sessions only through the table, whose
		// compile prewarmed them over its horizon (link.go): the run never
		// grows a memo another run may be reading.
		sim.win = tableWindow(lt)
	} else {
		// Without a table the run reads the sessions in a sliding window's
		// fills, some of them on background goroutines, so every lazily
		// memoized stochastic sequence is extended to the slot horizon up
		// front: no memo grows mid-run (nor leaves append-doubling garbage),
		// and the fills read them concurrently.
		sim.win = newLinkWindow(sim.workers, span, rows, horizon, constRate(sessions), sessions)
		workload.PrewarmAll(sim.workers, sessions, cfg.MaxSlots)
	}
	if sim.link, err = radio.NewLink(cfg.Radio, cfg.Tau, cfg.Unit); err != nil {
		return nil, err
	}
	sim.slot = sched.Slot{
		Tau:           cfg.Tau,
		Unit:          cfg.Unit,
		CapacityUnits: floorUnits(float64(cfg.Capacity)*float64(cfg.Tau), float64(cfg.Unit)),
		Cols:          &sim.cols,
	}
	sim.capUnits = sim.slot.CapacityUnits
	// Column storage for the slot view. Dynamic and derived columns are
	// engine-owned; Sig and Rate alias the window's slot rows
	// (attachSlotColumns), except that Rate is engine-owned when ABR
	// overrides the workload rates.
	n := len(sessions)
	sim.cols = sched.Columns{
		Active:      make([]bool, n),
		LinkRate:    make([]units.KBps, n),
		EnergyPerKB: make([]units.MJ, n),
		BufferSec:   make([]units.Seconds, n),
		RemainingKB: make([]units.KB, n),
		TailGap:     make([]units.Seconds, n),
		NeverActive: make([]bool, n),
		MaxUnits:    make([]int32, n),
	}
	sim.epkbAlt = make([]units.MJ, n)
	sim.luCol = make([]int32, n)
	if cfg.ABR != nil {
		sim.cols.Rate = make([]units.KBps, n)
	}
	sim.alloc = make([]int, len(sessions))
	// Admission order: users enter the live list as the clock reaches
	// their StartSlot, ties resolved by index (the stable sort keeps the
	// generator's index order within a slot).
	sim.pending = make([]int, len(sessions))
	for i := range sim.pending {
		sim.pending[i] = i
	}
	sort.SliceStable(sim.pending, func(a, b int) bool {
		return sessions[sim.pending[a]].StartSlot < sessions[sim.pending[b]].StartSlot
	})
	sim.live = make([]int, 0, len(sessions))
	// Non-nil even when empty, so an all-idle slot still presents an
	// engine-maintained (empty) active list instead of the nil fallback.
	sim.activeBuf = make([]int, 0, len(sessions))
	sim.unfinished = len(sessions)
	sim.colsSlot = -1
	return sim, nil
}

// newResult allocates the result shell both engines fill in.
func (s *Simulator) newResult() *Result {
	n := len(s.users)
	res := &Result{
		SchedulerName: s.sched.Name(),
		Users:         make([]UserTotals, n),
	}
	if s.cfg.Record != RecordTotals {
		// Pre-size the per-slot series from the slot horizon so the tick
		// never reallocates. A run that finishes early does not keep the
		// rest: Finish clips the series to the slots it ran, so a
		// cached Result holds its rows, not the horizon.
		res.PerSlot = make([]SlotTotals, 0, s.cfg.MaxSlots)
	}
	for i := range res.Users {
		res.Users[i].CompletionSlot = -1
	}
	if s.cfg.Record == RecordUserSlots {
		// Only the outer spines are pre-sized. Eagerly reserving MaxSlots
		// capacity per user is an O(users × horizon) allocation before the
		// first slot runs — the commit path appends lazily instead, so a
		// recorded run's sample memory grows with the slots it actually
		// simulates.
		res.RebufferSamples = make([][]float64, n)
		res.EnergySamples = make([][]float64, n)
	}
	return res
}

// begin guards against running a consumed Simulator: buffers, RRC
// machines and the engine's admission state are single-use.
func (s *Simulator) begin() error {
	if s.consumed {
		return fmt.Errorf("cell: simulator already ran; build a new one")
	}
	s.consumed = true
	return nil
}

// abrDemand picks user i's slot rate and remaining demand under ABR: the
// player selects p_i(n) from its ladder based on buffer occupancy, and
// the remainder is the undelivered content time priced at that rate,
// capped at the buffer-headroom request.
func (s *Simulator) abrDemand(i int, u *userState, active bool) (units.KBps, units.KB) {
	ctl := s.abrCtls[i]
	var rate units.KBps
	if active {
		rate = ctl.Pick(u.buf.Occupancy())
	} else {
		rate = ctl.Current()
	}
	// The player requests at most its buffer-cap headroom of content per
	// slot (plus the slot being played), and never more than the
	// remaining video.
	wantSec := s.cfg.ABR.WantSeconds(u.buf.Occupancy()) + s.cfg.Tau
	if rem := u.buf.RemainingSeconds(); wantSec > rem {
		wantSec = rem
	}
	return rate, units.KB(float64(wantSec) * float64(rate))
}

// attachSlotColumns points the slot view's Sig and Rate columns at the
// link window's slot-n rows: zero-copy reslices, swapped per slot, never
// written through, valid until the window's next swap.
func (s *Simulator) attachSlotColumns(n int) {
	s.win.ensure(n)
	sig, rate := s.win.slotColumns(n, len(s.users))
	s.cols.Sig = sig
	if s.cfg.ABR == nil {
		s.cols.Rate = rate
	}
}

// deriveDense derives the physics of users [lo, hi) from the attached
// signal row in one batch: the dense kernels' first step.
func (s *Simulator) deriveDense(lo, hi int) {
	s.link.Into(s.cols.Sig[lo:hi], s.cols.LinkRate[lo:hi], s.cols.EnergyPerKB[lo:hi], s.luCol[lo:hi])
}

// prepareColsUser refreshes user i's entries of the slot's columns for
// slot slotIdx and reports whether the user is active. Sig and Rate
// already alias the link window's slot rows, so the physics are derived
// from the signal through radio.Link and the dynamic columns (activity,
// buffer, demand, tail) written. Writes only user-i entries, so distinct
// users prepare concurrently.
func (s *Simulator) prepareColsUser(slotIdx, i int) bool {
	u := &s.users[i]
	started := slotIdx >= int(u.startSlot)
	active := started && !u.buf.DeliveryComplete()
	c := &s.cols
	v, p, lu := s.link.At(c.Sig[i])
	c.LinkRate[i], c.EnergyPerKB[i], s.luCol[i] = v, p, int32(lu)
	linkUnits := int(s.luCol[i])
	remainingKB := u.buf.RemainingBytes()
	if s.abrCtls != nil {
		// Rate is engine-owned under ABR (never the aliased table column).
		var rate units.KBps
		rate, remainingKB = s.abrDemand(i, u, active)
		c.Rate[i] = rate
	}
	c.Active[i] = active
	c.BufferSec[i] = u.buf.Occupancy()
	c.RemainingKB[i] = remainingKB
	c.TailGap[i] = u.tail.Gap
	c.NeverActive[i] = !u.tail.EverActive
	c.MaxUnits[i] = maxUnitsFor(active, linkUnits, remainingKB, float64(s.cfg.Unit))
	return active
}

// slotAccum is one shard's contribution to a slot's aggregates. The
// engine reduces the partials in shard order, so the reduction — and
// therefore every floating-point rounding — depends only on the shard
// layout, never on which worker ran which shard.
type slotAccum struct {
	rebuffer    units.Seconds
	energy      units.MJ
	usedUnits   int
	fairNum     float64 // Jain index accumulators
	fairDen     float64
	fairCount   int
	completions int // playback-complete transitions this slot
	clamps      int // entries Slot.ClampRange changed (clamp pass)
	active      int // active users written at the shard's live offset (see stageActive)
	err         error
	errUser     int
	// Neighbouring shards may run on different workers at once: the pad
	// keeps their accumulators off a shared 64-byte line (TestShardAccumLayout).
	_ [64]byte
}

// jain computes the Jain fairness index (Σx)²/(n·Σx²) with the convention
// that an empty or all-zero sample is perfectly fair.
func jain(sum, sumSq float64, n int) float64 {
	if n == 0 || sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(n) * sumSq)
}

func floorUnits(amount, unit float64) int {
	if amount <= 0 {
		return 0
	}
	return int(amount / unit)
}

// maxUnitsFor is a user's Eq. (1) limit for a slot: its link's units,
// capped at its remaining demand, or 0 when it is inactive. The ceiling
// division runs only when the cap can bind — rem ≥ unit·linkUnits implies
// ⌈rem/unit⌉ ≥ linkUnits — so far-from-done users skip it.
func maxUnitsFor(active bool, linkUnits int, remainingKB units.KB, unit float64) int32 {
	if !active {
		return 0
	}
	if float64(remainingKB) < unit*float64(linkUnits) {
		return int32(min(linkUnits, ceilUnits(float64(remainingKB), unit)))
	}
	return int32(linkUnits)
}

func ceilUnits(amount, unit float64) int {
	n := floorUnits(amount, unit)
	if float64(n)*unit < amount {
		n++
	}
	return n
}
