// Package deploy runs the paper's framework across a multi-cell
// deployment. The gateway "works between the base station and Internet to
// manage the resources of each BS independently" (§III-A): each cell has
// its own capacity, scheduler instance and slotted simulation, and the
// cells run concurrently on the worker pool. The package adds what a
// deployment needs on top of the single-cell simulator: per-(user, site)
// signal derivation, user-to-cell attachment policies, and aggregation of
// per-cell results into fleet-wide metrics.
//
// Attachment is decided once per session at admission (the paper's model;
// mid-session handover is out of scope and surfaced instead as the
// MisassignedSlots diagnostic — slots in which a user's strongest site
// differed from its serving site).
package deploy

import (
	"context"
	"fmt"
	"time"

	"jointstream/internal/cell"
	"jointstream/internal/metrics"
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
	// signal over the assessment window — the standard cell-selection
	// rule.
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

// Config parameterizes a deployment run.
type Config struct {
	Sites  []Site
	Policy Policy
	// AssessSlots is the signal-averaging window used by StrongestSignal
	// (default 10).
	AssessSlots int
	// Workers bounds the number of concurrently simulated cells
	// (0 = GOMAXPROCS).
	Workers int
	// Outages schedules site-level outages: each window zeroes the named
	// site's serving capacity for slots [From, To). The site's sessions
	// stay attached and resume when the window closes; Result.
	// DegradedSlots aggregates how many slots the fleet spent degraded.
	Outages []SiteOutage
	// Stream selects the epoch-clocked streaming runner: cells advance in
	// lockstep EpochSlots-sized batches and each finished cell's result is
	// folded into Result.Fleet and freed immediately, so the resident
	// footprint is O(active cells) rather than O(all cells' results). The
	// folded totals are byte-identical to the retained mode's accessors on
	// every overlapping metric (the fleet tests assert this with ==); what
	// streaming gives up is the per-site Result slice and the
	// MisassignedSlots diagnostic, whose O(users × slots × sites) signal
	// replay would dwarf the simulation itself at fleet scale.
	Stream bool
	// EpochSlots is the streaming runner's lockstep batch size (0 =
	// DefaultEpochSlots). Smaller epochs tighten the progress callback
	// cadence; results are byte-identical for any value (the stepped
	// engine contract) — only scheduling granularity changes.
	EpochSlots int
	// OnEpoch, when set, is called serially on the caller's goroutine
	// after every streaming epoch barrier — the hook the fleet benchmark
	// uses to sample wall time and heap high-water per epoch.
	OnEpoch func(EpochInfo)
	// EpochTimeout arms the epoch watchdog: a streaming (or open-fleet)
	// epoch that has not reached its barrier within this wall-clock bound
	// aborts the run with a typed *EpochStalledError instead of hanging
	// forever on a wedged scheduler. The run's context is cancelled so
	// cooperative workers exit; a worker stuck inside a non-cooperative
	// call is abandoned. Zero disables the watchdog.
	EpochTimeout time.Duration
}

// DefaultEpochSlots is the streaming runner's batch size when
// Config.EpochSlots is zero.
const DefaultEpochSlots = 256

// EpochInfo describes one completed streaming epoch.
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

// Validate checks the configuration.
func (c Config) Validate() error {
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
	if c.AssessSlots < 0 {
		return fmt.Errorf("deploy: negative assessment window %d", c.AssessSlots)
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
	// PerSite holds each cell's simulation result; entries are nil for
	// sites that received no users. Nil entirely in streaming mode, where
	// per-cell results are folded into Fleet and freed as cells finish.
	PerSite []*cell.Result
	// Placements maps each input session to its serving site.
	Placements []Placement
	// MisassignedSlots counts (user, slot) pairs in which a different
	// site's signal was ≥ HandoverMarginDB stronger than the serving
	// site's — an upper bound on the handovers a mobility-aware
	// deployment would perform. Always 0 in streaming mode: the
	// diagnostic replays every user's signal toward every site and its
	// O(users × slots × sites) cost is the antithesis of a bounded-memory
	// fleet pass.
	MisassignedSlots int
	// TotalSlots is Σ per-user simulated slots, the denominator for
	// MisassignedSlots.
	TotalSlots int
	// Fleet holds the streaming runner's folded aggregates; nil in
	// retained mode.
	Fleet *FleetMetrics
}

// FleetMetrics is the streaming runner's windowed aggregation of every
// per-cell result. Scalar totals are folded per site and then merged in
// site index order — the same float-addition sequence the retained
// Result accessors perform over PerSite — so the two modes agree
// bit-for-bit, not just approximately.
type FleetMetrics struct {
	// Sites and EmptySites count configured cells and cells that received
	// no users.
	Sites, EmptySites int
	// Users counts simulated sessions across the fleet.
	Users int
	// Slots is the fleet horizon: the largest per-cell slot count.
	Slots int
	// Epochs counts streaming epochs executed.
	Epochs int
	// DegradedSlots sums the slots each cell spent inside an outage
	// window; ClampEvents sums scheduler outputs clamped by Eq. (1)/(2).
	DegradedSlots, ClampEvents int
	// Energy and TailEnergy are fleet-total energies (mJ); Rebuffer is
	// the fleet-total stall time.
	Energy, TailEnergy units.MJ
	Rebuffer           units.Seconds
	// PerEpoch holds fleet-wide per-epoch energy/rebuffer totals, the
	// streaming replacement for retaining every cell's PerSlot series.
	PerEpoch []EpochTotals
	// RebufferPerUser and EnergyPerUser sketch the per-user total
	// distributions (seconds and mJ): fixed-memory streaming histograms
	// whose quantiles are within half a bin width of the exact sample
	// quantiles (see metrics.StreamingHist).
	RebufferPerUser *metrics.StreamingHist
	EnergyPerUser   *metrics.StreamingHist
}

// EpochTotals aggregates one streaming epoch across the fleet.
type EpochTotals struct {
	Energy   units.MJ
	Rebuffer units.Seconds
}

// HandoverMarginDB is the hysteresis margin used for the misassignment
// diagnostic, matching typical A3-event offsets.
const HandoverMarginDB = 3

// TotalEnergy sums energy across sites (mJ). Streaming results serve the
// folded fleet total, which matches the retained sum bit-for-bit.
func (r *Result) TotalEnergy() units.MJ {
	if r.Fleet != nil {
		return r.Fleet.Energy
	}
	var sum units.MJ
	for _, res := range r.PerSite {
		if res != nil {
			sum += res.TotalEnergy()
		}
	}
	return sum
}

// TotalRebuffer sums stall time across sites.
func (r *Result) TotalRebuffer() units.Seconds {
	if r.Fleet != nil {
		return r.Fleet.Rebuffer
	}
	var sum units.Seconds
	for _, res := range r.PerSite {
		if res != nil {
			sum += res.TotalRebuffer()
		}
	}
	return sum
}

// Users counts sessions across sites.
func (r *Result) Users() int { return len(r.Placements) }

// DegradedSlots sums the slots every site spent inside an outage window.
func (r *Result) DegradedSlots() int {
	if r.Fleet != nil {
		return r.Fleet.DegradedSlots
	}
	sum := 0
	for _, res := range r.PerSite {
		if res != nil {
			sum += res.DegradedSlots
		}
	}
	return sum
}

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

// SiteTrace returns the session's signal trace toward the given site.
// siteIdx decorrelates the per-site shadowing across sites and users.
func SiteTrace(s *workload.Session, site Site, siteIdx int) signal.Trace {
	return offsetTrace{
		base:      s.Signal,
		offset:    site.SignalOffset,
		shadowStd: site.ShadowStd,
		seed:      uint64(s.ID+1)*0xD1B54A32D192ED03 + uint64(siteIdx+1)*0x2545F4914F6CDD1D,
		bounds:    signal.DefaultBounds,
	}
}

// Run attaches the sessions to sites under the configured policy and
// simulates every cell concurrently. newSched must return a fresh
// scheduler per call (one per site).
func Run(ctx context.Context, cfg Config, sessions []*workload.Session, newSched func() (sched.Scheduler, error)) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(sessions) == 0 {
		return nil, fmt.Errorf("deploy: no sessions")
	}
	if newSched == nil {
		return nil, fmt.Errorf("deploy: nil scheduler factory")
	}
	assess := cfg.AssessSlots
	if assess == 0 {
		assess = 10
	}

	placements := assign(cfg, sessions, assess)

	// Group sessions per site, cloning with dense IDs and site-shifted
	// signal traces.
	perSite := make([][]*workload.Session, len(cfg.Sites))
	backRef := make([][]int, len(cfg.Sites)) // site-local index -> global user
	for _, pl := range placements {
		s := sessions[pl.User]
		clone := *s
		clone.ID = len(perSite[pl.Site])
		clone.Signal = SiteTrace(s, cfg.Sites[pl.Site], pl.Site)
		perSite[pl.Site] = append(perSite[pl.Site], &clone)
		backRef[pl.Site] = append(backRef[pl.Site], pl.User)
	}

	if cfg.Stream {
		fleet, err := runStream(ctx, cfg, perSite, newSched)
		if err != nil {
			return nil, err
		}
		return &Result{Placements: placements, Fleet: fleet}, nil
	}

	type job struct {
		site int
	}
	jobs := make([]job, 0, len(cfg.Sites))
	for i := range cfg.Sites {
		jobs = append(jobs, job{site: i})
	}
	results, err := pool.Map(ctx, cfg.Workers, jobs, func(ctx context.Context, j job) (*cell.Result, error) {
		if len(perSite[j.site]) == 0 {
			return nil, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sim, err := newSiteSim(cfg, j.site, perSite[j.site], newSched)
		if err != nil {
			return nil, err
		}
		return sim.RunCtx(ctx)
	})
	if err != nil {
		return nil, err
	}

	res := &Result{PerSite: results, Placements: placements}
	res.MisassignedSlots, res.TotalSlots = misassignment(cfg, sessions, placements, results, backRef)
	return res, nil
}

// newSiteSim builds one site's simulator: fresh scheduler, the site's
// cell config with this site's deploy-level outage windows appended to a
// copy (the caller's per-site config and any windows it already carries
// stay untouched).
func newSiteSim(cfg Config, site int, sessions []*workload.Session, newSched func() (sched.Scheduler, error)) (*cell.Simulator, error) {
	s, err := newSched()
	if err != nil {
		return nil, err
	}
	cellCfg := cfg.Sites[site].Cell
	for _, o := range cfg.Outages {
		if o.Site == site {
			cellCfg.Outages = append(cellCfg.Outages[:len(cellCfg.Outages):len(cellCfg.Outages)],
				cell.Outage{From: o.From, To: o.To})
		}
	}
	sim, err := cell.New(cellCfg, sessions, s)
	if err != nil {
		return nil, fmt.Errorf("site %d (%s): %w", site, cfg.Sites[site].Name, err)
	}
	return sim, nil
}

// Streaming-histogram shapes for the per-user distributions: 128 bins
// with sub-second / sub-mJ initial resolution; auto-widening covers any
// scale while keeping the quantile error at half the final bin width.
const (
	fleetHistBins          = 128
	fleetRebufferBinSec    = 0.25
	fleetEnergyBinMJ       = 1.0
	fleetEpochTotalsBudget = 1 << 16 // PerEpoch entries before truncation
)

// siteAgg is the per-site fold of one finished cell result. Scalars are
// kept per site and merged in site index order afterwards so the final
// totals reproduce the retained accessors' float-addition sequence
// exactly.
type siteAgg struct {
	users         int
	slots         int
	energy        units.MJ
	tailEnergy    units.MJ
	rebuffer      units.Seconds
	degradedSlots int
	clampEvents   int
	perEpoch      []EpochTotals
	// Per-site histograms, merged fleet-wide in site index order after
	// the run: folding straight into shared fleet histograms would order
	// the float accumulation by *finish epoch*, making the sketch's sum
	// depend on EpochSlots; per-site sketches cost O(sites × bins) and
	// keep every fleet metric byte-identical across epoch sizes too.
	rebufHist  *metrics.StreamingHist
	energyHist *metrics.StreamingHist
}

// runStream is the epoch-clocked fleet runner: every populated site gets
// a stepped simulator, all active sites advance to the same slot bound
// each epoch under the shared worker budget, and a site that finishes is
// folded into its siteAgg and freed before the next epoch — peak memory
// holds active simulators plus O(sites + epochs) aggregates, never the
// full fleet's results.
func runStream(ctx context.Context, cfg Config, perSite [][]*workload.Session, newSched func() (sched.Scheduler, error)) (*FleetMetrics, error) {
	epoch := cfg.EpochSlots
	if epoch == 0 {
		epoch = DefaultEpochSlots
	}
	// The watchdog cancels this context on a stall, so every cooperative
	// worker in the fleet unwinds together.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	fleet := &FleetMetrics{Sites: len(cfg.Sites)}
	var err error
	if fleet.RebufferPerUser, err = metrics.NewStreamingHist(fleetHistBins, fleetRebufferBinSec); err != nil {
		return nil, err
	}
	if fleet.EnergyPerUser, err = metrics.NewStreamingHist(fleetHistBins, fleetEnergyBinMJ); err != nil {
		return nil, err
	}

	sims := make([]*cell.Simulator, len(cfg.Sites))
	aggs := make([]siteAgg, len(cfg.Sites))
	active := make([]int, 0, len(cfg.Sites))
	for si := range cfg.Sites {
		if len(perSite[si]) == 0 {
			fleet.EmptySites++
			continue
		}
		sim, err := newSiteSim(cfg, si, perSite[si], newSched)
		if err != nil {
			return nil, err
		}
		if err := sim.Start(ctx); err != nil {
			return nil, err
		}
		sims[si] = sim
		active = append(active, si)
	}

	done := make([]bool, len(cfg.Sites))
	completed := 0
	upto := 0
	for len(active) > 0 {
		upto += epoch
		err := watchEpoch(cancel, cfg.EpochTimeout, fleet.Epochs, upto, func() error {
			return pool.ForEachN(ctx, cfg.Workers, len(active), func(ctx context.Context, k int) error {
				d, err := sims[active[k]].Advance(upto)
				done[active[k]] = d
				return err
			})
		})
		if err != nil {
			return nil, err
		}
		// Retire finished sites serially on this goroutine; folds are
		// per-site, so retire order cannot affect the final metrics.
		still := active[:0]
		for _, si := range active {
			if !done[si] {
				still = append(still, si)
				continue
			}
			if err := foldSite(&aggs[si], sims[si].Finish(), epoch); err != nil {
				return nil, err
			}
			sims[si] = nil
			completed++
		}
		active = still
		fleet.Epochs++
		if cfg.OnEpoch != nil {
			cfg.OnEpoch(EpochInfo{
				Epoch:          fleet.Epochs - 1,
				UptoSlot:       upto,
				ActiveSites:    len(active),
				CompletedSites: completed,
			})
		}
	}

	// Merge per-site aggregates in site index order — for the scalars,
	// the retained mode's exact summation sequence over PerSite; for the
	// histograms, an order independent of epoch size and worker count.
	for si := range aggs {
		a := &aggs[si]
		fleet.Users += a.users
		fleet.Energy += a.energy
		fleet.TailEnergy += a.tailEnergy
		fleet.Rebuffer += a.rebuffer
		fleet.DegradedSlots += a.degradedSlots
		fleet.ClampEvents += a.clampEvents
		if a.slots > fleet.Slots {
			fleet.Slots = a.slots
		}
		for e, t := range a.perEpoch {
			if e >= len(fleet.PerEpoch) {
				fleet.PerEpoch = append(fleet.PerEpoch, EpochTotals{})
			}
			fleet.PerEpoch[e].Energy += t.Energy
			fleet.PerEpoch[e].Rebuffer += t.Rebuffer
		}
		if a.rebufHist != nil {
			if err := fleet.RebufferPerUser.Merge(a.rebufHist); err != nil {
				return nil, err
			}
			if err := fleet.EnergyPerUser.Merge(a.energyHist); err != nil {
				return nil, err
			}
		}
	}
	return fleet, nil
}

// foldSite reduces one finished cell result into its per-site aggregate,
// after which the result is garbage.
func foldSite(a *siteAgg, res *cell.Result, epoch int) error {
	a.users = len(res.Users)
	a.slots = res.Slots
	a.energy = res.TotalEnergy()
	a.tailEnergy = res.TotalTailEnergy()
	a.rebuffer = res.TotalRebuffer()
	a.degradedSlots = res.DegradedSlots
	a.clampEvents = res.ClampEvents
	nEpochs := (res.Slots + epoch - 1) / epoch
	if nEpochs > fleetEpochTotalsBudget {
		nEpochs = fleetEpochTotalsBudget
	}
	a.perEpoch = make([]EpochTotals, nEpochs)
	for n, st := range res.PerSlot {
		e := n / epoch
		if e >= nEpochs {
			break
		}
		a.perEpoch[e].Energy += st.Energy
		a.perEpoch[e].Rebuffer += st.Rebuffer
	}
	var err error
	if a.rebufHist, err = metrics.NewStreamingHist(fleetHistBins, fleetRebufferBinSec); err != nil {
		return err
	}
	if a.energyHist, err = metrics.NewStreamingHist(fleetHistBins, fleetEnergyBinMJ); err != nil {
		return err
	}
	for _, u := range res.Users {
		a.rebufHist.Observe(float64(u.Rebuffer))
		a.energyHist.Observe(float64(u.Energy()))
	}
	return nil
}

// assign applies the attachment policy.
func assign(cfg Config, sessions []*workload.Session, assess int) []Placement {
	placements := make([]Placement, len(sessions))
	demand := make([]units.KBps, len(cfg.Sites))
	for ui, s := range sessions {
		site := 0
		switch cfg.Policy {
		case RoundRobin:
			site = ui % len(cfg.Sites)
		case LeastLoaded:
			for si := 1; si < len(cfg.Sites); si++ {
				if demand[si] < demand[site] {
					site = si
				}
			}
		case StrongestSignal:
			best := meanSignal(SiteTrace(s, cfg.Sites[0], 0), s.StartSlot, assess)
			for si := 1; si < len(cfg.Sites); si++ {
				m := meanSignal(SiteTrace(s, cfg.Sites[si], si), s.StartSlot, assess)
				if m > best {
					best, site = m, si
				}
			}
		}
		demand[site] += s.BaseRate
		placements[ui] = Placement{User: ui, Site: site}
	}
	return placements
}

func meanSignal(tr signal.Trace, start, window int) float64 {
	var sum float64
	for n := start; n < start+window; n++ {
		sum += float64(tr.At(n))
	}
	return sum / float64(window)
}

// misassignment counts slots where some other site beat the serving site
// by the handover margin.
func misassignment(cfg Config, sessions []*workload.Session, placements []Placement, results []*cell.Result, backRef [][]int) (int, int) {
	mis, total := 0, 0
	for si, res := range results {
		if res == nil {
			continue
		}
		for _, globalID := range backRef[si] {
			s := sessions[globalID]
			serving := SiteTrace(s, cfg.Sites[si], si)
			for n := s.StartSlot; n < res.Slots; n++ {
				total++
				sv := float64(serving.At(n))
				for oi := range cfg.Sites {
					if oi == si {
						continue
					}
					if float64(SiteTrace(s, cfg.Sites[oi], oi).At(n)) >= sv+HandoverMarginDB {
						mis++
						break
					}
				}
			}
		}
	}
	return mis, total
}
