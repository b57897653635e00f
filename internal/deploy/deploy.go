// Package deploy runs the paper's framework across a multi-cell
// deployment. The gateway "works between the base station and Internet to
// manage the resources of each BS independently" (§III-A): each cell has
// its own capacity, scheduler instance and slotted simulation, and the
// cells advance concurrently on the worker pool. The package adds what a
// deployment needs on top of the single-cell simulator: per-(user, site)
// signal derivation, user-to-cell attachment policies, the epoch loop, and
// aggregation of per-cell results into fleet metrics.
//
// Attachment is decided once per session at admission (the paper's model;
// mid-session handover is out of scope and surfaced instead by the
// Misassignment diagnostic — slots in which a user's strongest site
// differed from its serving site).
package deploy

import (
	"context"
	"fmt"
	"time"

	"jointstream/internal/cell"
	"jointstream/internal/pool"
	"jointstream/internal/rng"
	"jointstream/internal/sched"
	"jointstream/internal/signal"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// Site is one base station of the deployment.
type Site struct {
	// Name labels the site in results.
	Name string
	// Cell is the site's simulator configuration (capacity may differ
	// per site; radio/RRC models are usually shared).
	Cell cell.Config
	// SignalOffset shifts every user's base signal trace toward this
	// site, modeling the path-loss difference of its location.
	SignalOffset units.DBm
	// ShadowStd adds independent per-site log-normal shadowing (dB) on
	// top of the shared base trace, decorrelating the sites the way
	// distinct propagation paths do. Zero disables it.
	ShadowStd float64
}

// Policy selects how sessions are attached to sites.
type Policy int

// Attachment policies.
const (
	// StrongestSignal attaches each user to the site with the best mean
	// signal over the assessSlots slots from its start — the standard
	// cell-selection rule.
	StrongestSignal Policy = iota
	// RoundRobin attaches users to sites in order, ignoring radio state.
	RoundRobin
	// LeastLoaded attaches each user to the site with the least total
	// attached demand (sum of required rates) so far, breaking ties by
	// site order.
	LeastLoaded
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case StrongestSignal:
		return "strongest-signal"
	case RoundRobin:
		return "round-robin"
	case LeastLoaded:
		return "least-loaded"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// assessSlots is the signal-averaging window StrongestSignal reads.
const assessSlots = 10

// Config parameterizes a deployment run.
type Config struct {
	Sites  []Site
	Policy Policy
	// Workers bounds the number of concurrently advanced cells
	// (0 = GOMAXPROCS).
	Workers int
	// Outages schedules site-level outages: each window zeroes the named
	// site's serving capacity for slots [From, To). The site's sessions
	// stay attached and resume when the window closes; Result.
	// DegradedSlots aggregates how many slots the fleet spent degraded.
	Outages []SiteOutage
	// Deprecated: ignored; every run streams.
	Stream bool
	// EpochSlots is the epoch loop's lockstep batch size (0 =
	// defaultEpochSlots). Smaller epochs tighten the progress callback
	// cadence; results are byte-identical for any value (the stepped
	// engine contract) — only scheduling granularity changes.
	EpochSlots int
	// OnEpoch, when set, is called serially on the caller's goroutine
	// after every epoch barrier — the hook the fleet benchmark uses to
	// sample wall time and heap high-water per epoch.
	OnEpoch func(EpochInfo)
	// EpochTimeout arms the epoch watchdog: an epoch that has not reached
	// its barrier within this wall-clock bound aborts the run with a typed
	// *EpochStalledError instead of hanging forever on a wedged scheduler.
	// The run's context is cancelled so cooperative workers exit; a worker
	// stuck inside a non-cooperative call is abandoned. Zero disables the
	// watchdog.
	EpochTimeout time.Duration
}

// defaultEpochSlots is the epoch loop's batch size when Config.EpochSlots
// is zero.
const defaultEpochSlots = 256

func (c Config) epochSlots() int {
	if c.EpochSlots == 0 {
		return defaultEpochSlots
	}
	return c.EpochSlots
}

// EpochInfo describes one completed epoch.
type EpochInfo struct {
	// Epoch is the zero-based epoch index.
	Epoch int
	// UptoSlot is the exclusive slot bound every active cell reached.
	UptoSlot int
	// ActiveSites counts cells still running after this epoch.
	ActiveSites int
	// CompletedSites counts cells finished and folded so far.
	CompletedSites int
}

// SiteOutage is one site-scoped capacity-zero window over [From, To).
type SiteOutage struct {
	// Site indexes Config.Sites.
	Site     int
	From, To int
}

// validate checks the configuration.
func (c Config) validate() error {
	if len(c.Sites) == 0 {
		return fmt.Errorf("deploy: no sites")
	}
	for i, s := range c.Sites {
		if err := s.Cell.Validate(); err != nil {
			return fmt.Errorf("deploy: site %d (%s): %w", i, s.Name, err)
		}
	}
	switch c.Policy {
	case StrongestSignal, RoundRobin, LeastLoaded:
	default:
		return fmt.Errorf("deploy: unknown policy %d", int(c.Policy))
	}
	for i, o := range c.Outages {
		if o.Site < 0 || o.Site >= len(c.Sites) {
			return fmt.Errorf("deploy: outage %d names unknown site %d", i, o.Site)
		}
		if o.From < 0 || o.To < o.From {
			return fmt.Errorf("deploy: outage %d has invalid window [%d, %d)", i, o.From, o.To)
		}
	}
	if c.EpochSlots < 0 {
		return fmt.Errorf("deploy: negative epoch size %d", c.EpochSlots)
	}
	if c.EpochTimeout < 0 {
		return fmt.Errorf("deploy: negative epoch timeout %v", c.EpochTimeout)
	}
	return nil
}

// EpochStalledError reports an epoch that missed the watchdog deadline.
type EpochStalledError struct {
	// Epoch is the zero-based index of the stalled epoch; UptoSlot the
	// barrier it failed to reach.
	Epoch, UptoSlot int
	// Timeout is the configured bound it exceeded.
	Timeout time.Duration
}

func (e *EpochStalledError) Error() string {
	return fmt.Sprintf("deploy: epoch %d stalled: barrier %d not reached within %v", e.Epoch, e.UptoSlot, e.Timeout)
}

// watchEpoch runs one epoch's advance under the watchdog. With no
// timeout it degenerates to a plain call. On a stall it cancels the
// run's context — releasing every worker that checks it — and returns
// the typed error immediately, abandoning any wedged worker rather than
// joining it.
func watchEpoch(cancel context.CancelFunc, timeout time.Duration, epoch, upto int, run func() error) error {
	if timeout <= 0 {
		return run()
	}
	done := make(chan error, 1)
	go func() { done <- run() }()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case err := <-done:
		return err
	case <-timer.C:
		cancel()
		return &EpochStalledError{Epoch: epoch, UptoSlot: upto, Timeout: timeout}
	}
}

// Placement records where one session was attached.
type Placement struct {
	User int
	Site int
}

// Result aggregates a deployment run.
type Result struct {
	// Placements maps each input session to its serving site.
	Placements []Placement
	// Fleet holds the folded aggregates of every cell.
	Fleet *FleetMetrics
}

// FleetMetrics is the fold of every cell's result. Scalar totals are
// merged per site in site index order — the float-addition sequence of
// summing each one-shot cell's Result accessors — so they are exact for
// any epoch size or worker count.
type FleetMetrics struct {
	// Sites and EmptySites count configured cells and cells that received
	// no users.
	Sites, EmptySites int
	// Users counts simulated sessions across the fleet.
	Users int
	// Slots is the fleet horizon: the largest per-cell slot count.
	Slots int
	// Epochs counts epochs executed.
	Epochs int
	// DegradedSlots sums the slots each cell spent inside an outage
	// window; ClampEvents sums scheduler outputs clamped by Eq. (1)/(2).
	DegradedSlots, ClampEvents int
	// Energy and TailEnergy are fleet-total energies (mJ); Rebuffer is
	// the fleet-total stall time.
	Energy, TailEnergy units.MJ
	Rebuffer           units.Seconds
	// PerSite holds each site's totals; an empty site's are zero.
	PerSite []SiteTotals
	// PerEpoch holds fleet-wide per-epoch energy/rebuffer totals, the
	// bounded-memory replacement for every cell's PerSlot series.
	PerEpoch []EpochTotals
}

// SiteTotals is one site's share of the FleetMetrics fields of the same
// names (Slots is its cell's run length), as its cell's Result reports it.
type SiteTotals struct {
	Users, Slots               int
	Energy, TailEnergy         units.MJ
	Rebuffer                   units.Seconds
	DegradedSlots, ClampEvents int
}

// EpochTotals aggregates one epoch across the fleet.
type EpochTotals struct {
	Energy   units.MJ
	Rebuffer units.Seconds
}

// handoverMarginDB is the hysteresis margin used for the misassignment
// diagnostic, matching typical A3-event offsets.
const handoverMarginDB = 3

// TotalEnergy is the fleet-total energy (mJ).
func (r *Result) TotalEnergy() units.MJ { return r.Fleet.Energy }

// TotalRebuffer is the fleet-total stall time.
func (r *Result) TotalRebuffer() units.Seconds { return r.Fleet.Rebuffer }

// DegradedSlots sums the slots every site spent inside an outage window.
func (r *Result) DegradedSlots() int { return r.Fleet.DegradedSlots }

// offsetTrace shifts a base trace by a fixed dBm offset plus optional
// independent per-slot shadowing, clamped to the physical bounds. The
// shadowing is a pure function of (seed, slot), so the trace stays
// repeatable in any query order.
type offsetTrace struct {
	base      signal.Trace
	offset    units.DBm
	shadowStd float64
	seed      uint64
	bounds    signal.Bounds
}

// shadowSalt separates site shadowing from other Hash3-keyed draw streams
// (the stateless sine's noise, forecast noise).
const shadowSalt = 0x73686164 // "shad"

func (t offsetTrace) At(n int) units.DBm {
	return t.shift(t.base.At(n), t.shadow(n))
}

// Fill implements signal.Filler: the base trace's run, shifted in place.
// A site without shadowing — every site of a fleet run — has no per-slot
// draw to ask for.
func (t offsetTrace) Fill(dst []units.DBm, from int) {
	signal.Fill(t.base, dst, from)
	if t.shadowStd > 0 {
		for k, v := range dst {
			dst[k] = t.shift(v, t.shadow(from+k))
		}
		return
	}
	for k, v := range dst {
		dst[k] = t.shift(v, 0)
	}
}

// shadow is slot n's shadowing in dBm: the standard normal addressed by
// (seed, slot), scaled; 0 for a site without shadowing.
func (t offsetTrace) shadow(n int) float64 {
	if t.shadowStd > 0 {
		return t.shadowStd * rng.NormWord(rng.Hash3(t.seed, uint64(n), shadowSalt))
	}
	return 0
}

// shift applies the site offset, a slot's shadowing and the clamp to the
// base trace's value; At and Fill share it.
func (t offsetTrace) shift(base units.DBm, shadow float64) units.DBm {
	v := float64(base+t.offset) + shadow
	if v < float64(t.bounds.Min) {
		return t.bounds.Min
	}
	if v > float64(t.bounds.Max) {
		return t.bounds.Max
	}
	return units.DBm(v)
}

// siteTrace returns the session's signal trace toward the given site.
// siteIdx decorrelates the per-site shadowing across sites and users.
func siteTrace(s *workload.Session, site Site, siteIdx int) signal.Trace {
	return offsetTrace{
		base:      s.Signal,
		offset:    site.SignalOffset,
		shadowStd: site.ShadowStd,
		seed:      uint64(s.ID+1)*0xD1B54A32D192ED03 + uint64(siteIdx+1)*0x2545F4914F6CDD1D,
		bounds:    signal.DefaultBounds,
	}
}

// Run attaches the sessions to sites under the configured policy and runs
// every populated cell through the epoch loop, folding each into
// Result.Fleet and freeing it as it finishes, so the footprint is O(active
// cells). newSched must return a fresh scheduler per call (one per site).
func Run(ctx context.Context, cfg Config, sessions []*workload.Session, newSched func() (sched.Scheduler, error)) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(sessions) == 0 {
		return nil, fmt.Errorf("deploy: no sessions")
	}
	if newSched == nil {
		return nil, fmt.Errorf("deploy: nil scheduler factory")
	}

	// Place every session and clone it into its site's population with a
	// dense ID and the site-shifted signal trace.
	res := &Result{Placements: make([]Placement, len(sessions))}
	perSite := make([][]*workload.Session, len(cfg.Sites))
	for si := range perSite {
		perSite[si] = make([]*workload.Session, 0, len(sessions)/len(cfg.Sites)+1) // round robin's share
	}
	demand := make([]units.KBps, len(cfg.Sites))
	for ui, s := range sessions {
		si := pickSite(cfg, ui, s, demand)
		demand[si] += s.BaseRate
		res.Placements[ui] = Placement{User: ui, Site: si}
		clone := *s
		clone.ID = len(perSite[si])
		clone.Signal = siteTrace(s, cfg.Sites[si], si)
		perSite[si] = append(perSite[si], &clone)
	}

	fleet := &FleetMetrics{Sites: len(cfg.Sites)}
	sims := make([]*cell.OpenSim, len(cfg.Sites))
	aggs := make([]siteAgg, len(cfg.Sites))
	for si, ss := range perSite {
		if len(ss) == 0 {
			fleet.EmptySites++
			continue
		}
		// A site is a bounded open cell on the closed window rule, with a
		// fresh scheduler and the site's deploy-level outages appended to a
		// copy of its own. It records totals only: foldSite reads its
		// Result's totals, and its per-epoch series folds through OnSlot.
		s, err := newSched()
		if err != nil {
			return nil, err
		}
		oc := cell.OpenConfig{Cell: cfg.Sites[si].Cell, MaxSessions: len(ss)}
		oc.Cell.Record = cell.RecordTotals
		oc.OnSlot = aggs[si].epochFold(oc.Cell.MaxSlots, cfg.epochSlots())
		for _, o := range cfg.Outages {
			if o.Site == si {
				oc.Cell.Outages = append(oc.Cell.Outages[:len(oc.Cell.Outages):len(oc.Cell.Outages)],
					cell.Outage{From: o.From, To: o.To})
			}
		}
		if sims[si], err = cell.NewOpen(oc, ss, s); err != nil {
			return nil, fmt.Errorf("site %d (%s): %w", si, cfg.Sites[si].Name, err)
		}
	}
	epochs, err := lockstep(ctx, cfg, sims, aggs)
	if err != nil {
		return nil, err
	}
	fleet.Epochs = epochs
	fleet.merge(aggs)
	res.Fleet = fleet
	return res, nil
}

// lockstep is the epoch loop, over the sites (nil = no cell). It starts
// them; every epoch it advances each running site to the same slot bound
// under the shared worker budget and the epoch watchdog, folds the sites
// that finished into aggs, and reports the epoch; and it stops them on the
// way out. Everything that spans sites runs serially on the caller's
// goroutine in site order, so no result depends on the worker count, and
// the stepped engine contract makes none depend on the epoch size either.
// It returns the epochs run.
func lockstep(ctx context.Context, cfg Config, sims []*cell.OpenSim, aggs []siteAgg) (int, error) {
	epoch := cfg.epochSlots()
	// A watchdog cancels this context on a stall, so every cooperative
	// worker in the fleet unwinds together.
	var cancel context.CancelFunc
	if cfg.EpochTimeout > 0 {
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
	}
	// A stalled epoch's abandoned worker may still be advancing any running
	// site: those are left to it, and each unwinds through the cancelled
	// context, whose error return stops the site's window.
	stalled := false
	defer func() {
		for _, sim := range sims {
			if sim != nil && !stalled {
				sim.Stop()
			}
		}
	}()
	running := make([]int, 0, len(sims))
	for si, sim := range sims {
		if sim == nil {
			continue
		}
		if err := sim.Start(ctx); err != nil {
			return 0, err
		}
		running = append(running, si)
	}
	done := make([]bool, len(sims))
	epochs, retired := 0, 0
	// Bound once for the run, not per epoch: upto and running change only
	// between epochs.
	upto, workers := 0, cfg.Workers
	tick := func(_ context.Context, k int) error {
		d, err := sims[running[k]].AdvanceTo(upto)
		done[running[k]] = d
		return err
	}
	advance := func() error { return pool.ForEachN(ctx, workers, len(running), tick) }
	for len(running) > 0 {
		upto += epoch
		err := watchEpoch(cancel, cfg.EpochTimeout, epochs, upto, advance)
		if err != nil {
			_, stalled = err.(*EpochStalledError)
			return 0, err
		}
		still := running[:0]
		for _, si := range running {
			if !done[si] {
				still = append(still, si)
				continue
			}
			foldSite(&aggs[si], sims[si].Finish())
			sims[si] = nil
			retired++
		}
		running = still
		epochs++
		if cfg.OnEpoch != nil {
			cfg.OnEpoch(EpochInfo{Epoch: epochs - 1, UptoSlot: upto, ActiveSites: len(running), CompletedSites: retired})
		}
	}
	return epochs, nil
}

const fleetEpochTotalsBudget = 1 << 16 // PerEpoch entries before truncation

// siteAgg is the fold of one cell. Its epoch series lives only until the
// merge, which runs in site index order after the run: folding straight
// into the fleet's series would order its float additions by finish
// epoch, not site.
type siteAgg struct {
	SiteTotals
	perEpoch []EpochTotals
}

// epochFold returns the OnSlot hook that sums a site's slot totals into
// its per-epoch series as the tick reduces them: slot n into entry n /
// epoch, from zero in slot order, so a site that ticked Slots slots ends
// with ⌈Slots / epoch⌉ entries (at most fleetEpochTotalsBudget).
func (a *siteAgg) epochFold(horizon, epoch int) func(int, cell.SlotTotals) {
	a.perEpoch = make([]EpochTotals, 0, min((horizon+epoch-1)/epoch, fleetEpochTotalsBudget))
	return func(n int, st cell.SlotTotals) {
		e := n / epoch
		if e >= fleetEpochTotalsBudget {
			return
		}
		for e >= len(a.perEpoch) {
			a.perEpoch = append(a.perEpoch, EpochTotals{})
		}
		a.perEpoch[e].Energy += st.Energy
		a.perEpoch[e].Rebuffer += st.Rebuffer
	}
}

// foldSite reduces one finished cell result to its site's totals, after
// which the result is garbage.
func foldSite(a *siteAgg, res *cell.Result) {
	a.SiteTotals = SiteTotals{
		Users: len(res.Users), Slots: res.Slots,
		Energy: res.TotalEnergy(), TailEnergy: res.TotalTailEnergy(), Rebuffer: res.TotalRebuffer(),
		DegradedSlots: res.DegradedSlots, ClampEvents: res.ClampEvents,
	}
}

// merge folds the per-site aggregates into the fleet in site index order.
func (f *FleetMetrics) merge(aggs []siteAgg) {
	f.PerSite = make([]SiteTotals, len(aggs))
	for si, a := range aggs {
		f.PerSite[si] = a.SiteTotals
		f.Users += a.Users
		f.Energy += a.Energy
		f.TailEnergy += a.TailEnergy
		f.Rebuffer += a.Rebuffer
		f.DegradedSlots += a.DegradedSlots
		f.ClampEvents += a.ClampEvents
		if a.Slots > f.Slots {
			f.Slots = a.Slots
		}
		for e, t := range a.perEpoch {
			if e >= len(f.PerEpoch) {
				f.PerEpoch = append(f.PerEpoch, EpochTotals{})
			}
			f.PerEpoch[e].Energy += t.Energy
			f.PerEpoch[e].Rebuffer += t.Rebuffer
		}
	}
}

// pickSite is the attachment policy: the site for the ordinal-th session
// given each site's attached demand. Ties go to the lowest index.
func pickSite(cfg Config, ordinal int, s *workload.Session, demand []units.KBps) int {
	site := 0
	switch cfg.Policy {
	case RoundRobin:
		site = ordinal % len(cfg.Sites)
	case LeastLoaded:
		for si := 1; si < len(demand); si++ {
			if demand[si] < demand[site] {
				site = si
			}
		}
	case StrongestSignal:
		best := meanSignal(siteTrace(s, cfg.Sites[0], 0), s.StartSlot, assessSlots)
		for si := 1; si < len(cfg.Sites); si++ {
			m := meanSignal(siteTrace(s, cfg.Sites[si], si), s.StartSlot, assessSlots)
			if m > best {
				best, site = m, si
			}
		}
	}
	return site
}

func meanSignal(tr signal.Trace, start, window int) float64 {
	var sum float64
	for n := start; n < start+window; n++ {
		sum += float64(tr.At(n))
	}
	return sum / float64(window)
}

// Misassignment counts the (user, slot) pairs of a finished run in which
// another site's signal was ≥ handoverMarginDB stronger than the serving
// site's — an upper bound on the handovers a mobility-aware deployment
// would perform — out of total simulated pairs. Its replay of every signal
// toward every site is O(users × slots × sites), so Run does not pay it.
func Misassignment(cfg Config, sessions []*workload.Session, res *Result) (mis, total int) {
	for _, pl := range res.Placements {
		s := sessions[pl.User]
		serving := siteTrace(s, cfg.Sites[pl.Site], pl.Site)
		for n := s.StartSlot; n < res.Fleet.PerSite[pl.Site].Slots; n++ {
			total++
			sv := float64(serving.At(n))
			for oi := range cfg.Sites {
				if oi != pl.Site && float64(siteTrace(s, cfg.Sites[oi], oi).At(n)) >= sv+handoverMarginDB {
					mis++
					break
				}
			}
		}
	}
	return mis, total
}
