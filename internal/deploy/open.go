package deploy

import (
	"context"
	"errors"
	"fmt"

	"jointstream/internal/cell"
	"jointstream/internal/rng"
	"jointstream/internal/sched"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// This file runs the fleet in open-system mode: every site serves a
// cell.OpenSim, sessions arrive by a stochastic arrival process over an
// unbounded horizon, are placed under the deployment's attachment
// policy, and leave by completing, abandoning (a departure process), or
// being refused admission. Cells advance in the same epoch loop as the
// closed fleet — including the epoch watchdog — and a session refused by
// its preferred site spills to the remaining sites in index order before
// counting as a fleet-level rejection.

// OpenFleetConfig parameterizes an open-system fleet run.
type OpenFleetConfig struct {
	// Deploy supplies the sites, attachment policy, worker budget,
	// epoch size and epoch watchdog. Its Outages must be empty: open
	// sites take no outage windows.
	Deploy Config
	// Open is the per-site open-system template: session caps, headroom,
	// tile and window shapes. Its Cell field is ignored — each site's
	// own cell config is used, forced to the unbounded-horizon shape
	// (RunFullHorizon, no per-user slot recording).
	Open cell.OpenConfig
	// Churn draws the session population (sizes, rates, signal shape).
	Churn workload.Config
	// Arrivals is the inter-arrival law; arrivals occur in slots
	// [0, ArrivalSlots).
	Arrivals workload.ArrivalProcess
	// ArrivalSlots bounds the arrival window.
	ArrivalSlots int
	// Stays, when set with AbandonFrac > 0, gives that fraction of
	// admitted sessions a finite stay after which they abandon (depart
	// mid-stream) if still in service.
	Stays       workload.DepartureProcess
	AbandonFrac float64
	// MaxSlots hard-stops the drain phase (0 = 8 × ArrivalSlots). A run
	// reaching it reports Drained=false with the leftovers in InService.
	MaxSlots int
	// Seed drives the arrival, stay and session draws.
	Seed uint64
}

// OpenFleetResult aggregates an open-system fleet run.
type OpenFleetResult struct {
	// PerSite holds each site's final open-engine stats (after every
	// leftover session was folded). Per-site Rejected counts every
	// refused admission attempt, including spill probes.
	PerSite []cell.OpenStats
	// Epochs counts lockstep epochs; Slots the final fleet clock.
	Epochs, Slots int
	// Drained reports whether every admitted session ended before
	// MaxSlots.
	Drained bool
	// Admitted counts sessions placed somewhere; Spilled those placed on
	// a site other than their policy's first choice; Rejected sessions
	// refused by every site.
	Admitted, Spilled, Rejected int
	// Completed, Departed and InService partition the admitted sessions
	// at the end of the run.
	Completed, Departed, InService int
	// Energy, Rebuffer and DeliveredKB are fleet totals over ended
	// sessions, folded per site and summed in site index order.
	Energy      units.MJ
	Rebuffer    units.Seconds
	DeliveredKB units.KB
}

// Validate checks the open-fleet configuration.
func (c OpenFleetConfig) Validate() error {
	if err := c.Deploy.Validate(); err != nil {
		return err
	}
	if len(c.Deploy.Outages) > 0 {
		return fmt.Errorf("deploy: open fleet does not apply Deploy.Outages (%d windows given)", len(c.Deploy.Outages))
	}
	if c.Arrivals == nil {
		return fmt.Errorf("deploy: open fleet needs an arrival process")
	}
	if c.ArrivalSlots <= 0 {
		return fmt.Errorf("deploy: non-positive arrival window %d", c.ArrivalSlots)
	}
	if c.AbandonFrac < 0 || c.AbandonFrac > 1 {
		return fmt.Errorf("deploy: abandon fraction %v outside [0, 1]", c.AbandonFrac)
	}
	if c.AbandonFrac > 0 && c.Stays == nil {
		return fmt.Errorf("deploy: abandon fraction %v without a departure process", c.AbandonFrac)
	}
	if c.MaxSlots < 0 {
		return fmt.Errorf("deploy: negative slot cap %d", c.MaxSlots)
	}
	return nil
}

// stay is one scheduled abandonment, serial-guarded against the site
// slot being reused by a later session.
type stay struct {
	site, idx int
	ser       uint64
	until     int
}

// RunOpenFleet serves churn across the fleet until the arrival window
// closes and the sites drain (or MaxSlots is hit). newSched must return
// a fresh scheduler per call — one per site.
func RunOpenFleet(ctx context.Context, cfg OpenFleetConfig, newSched func() (sched.Scheduler, error)) (*OpenFleetResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if newSched == nil {
		return nil, fmt.Errorf("deploy: nil scheduler factory")
	}
	maxSlots := cfg.MaxSlots
	if maxSlots == 0 {
		maxSlots = 8 * cfg.ArrivalSlots
	}
	gen, err := workload.NewChurnGen(cfg.Churn, rng.New(cfg.Seed^0xA24BAED4963EE407))
	if err != nil {
		return nil, err
	}
	arrSrc := rng.New(cfg.Seed ^ 0x9FB21C651E98DF25)
	staySrc := rng.New(cfg.Seed ^ 0x285842851E1BC6D1)

	sims := make([]*cell.OpenSim, len(cfg.Deploy.Sites))
	for si, site := range cfg.Deploy.Sites {
		oc := cfg.Open
		oc.Cell = site.Cell
		oc.Cell.RunFullHorizon = true
		oc.Cell.RecordPerUserSlots = false
		oc.Unbounded = true
		if sims[si], err = newSite(cfg.Deploy, si, oc, nil, newSched); err != nil {
			return nil, err
		}
	}
	res := &OpenFleetResult{PerSite: make([]cell.OpenStats, len(sims))}
	var stays []stay
	uid, clock := 0, 0
	nextAt := cfg.Arrivals.NextGap(uid, arrSrc)
	res.Epochs, err = lockstep(ctx, cfg.Deploy, sims, epochSteps{
		before: func(upto int) error {
			// Abandonments due by now. A stay that lost the race against
			// natural completion (or whose slot was reused) is a clean
			// no-op thanks to the serial guard.
			keep := stays[:0]
			for _, st := range stays {
				if st.until <= clock {
					if _, err := sims[st.site].DepartSerial(st.idx, st.ser); err != nil {
						return err
					}
					continue
				}
				keep = append(keep, st)
			}
			stays = keep

			// Admissions landing inside this epoch, placed serially so
			// every worker count sees the identical fleet history.
			for nextAt < upto && nextAt < cfg.ArrivalSlots {
				sess, err := gen.Next(uid, nextAt)
				if err != nil {
					return err
				}
				st, placed, err := admitFleet(cfg, sims, sess)
				if err != nil {
					return err
				}
				if placed >= 0 {
					res.Admitted++
					if placed != 0 {
						res.Spilled++
					}
					if cfg.AbandonFrac > 0 {
						if d := cfg.Stays.StaySlots(uid, staySrc); d > 0 && staySrc.Bool(cfg.AbandonFrac) {
							stays = append(stays, stay{site: st.site, idx: st.idx, ser: st.ser, until: nextAt + d})
						}
					}
				} else {
					res.Rejected++
				}
				uid++
				nextAt += cfg.Arrivals.NextGap(uid, arrSrc)
			}
			return nil
		},
		// An open site never finishes: the fleet stops in after.
		after: func(e *EpochInfo) bool {
			clock = e.UptoSlot
			inService := 0
			e.ActiveSites = 0
			for _, sim := range sims {
				if n := sim.Stats().InService; n > 0 {
					inService += n
					e.ActiveSites++
				}
			}
			res.Drained = nextAt >= cfg.ArrivalSlots && inService == 0
			return res.Drained || clock >= maxSlots
		},
	})
	if err != nil {
		return nil, err
	}

	// Finalize every site (folding sessions still in service) and merge
	// in site index order.
	for si, sim := range sims {
		sim.Finish()
		st := sim.Stats()
		res.PerSite[si] = st
		res.Completed += st.Completed
		res.Departed += st.Departed
		res.Energy += st.EndedEnergy
		res.Rebuffer += st.EndedRebuffer
		res.DeliveredKB += st.EndedDeliveredKB
		if st.Slot > res.Slots {
			res.Slots = st.Slot
		}
	}
	res.InService = res.Admitted - res.Completed - res.Departed
	return res, nil
}

// admitFleet places one session: its policy-preferred site first, then
// the remaining sites in index order (spill). It returns the stay
// coordinates of the admitted session and the preference rank it landed
// at, or rank -1 when every site refused. Only typed over-capacity
// refusals spill; any other admission error is fatal to the run.
func admitFleet(cfg OpenFleetConfig, sims []*cell.OpenSim, sess *workload.Session) (stay, int, error) {
	demand := make([]units.KBps, len(sims))
	for si, sim := range sims {
		demand[si] = sim.Stats().DemandKBps
	}
	// ChurnGen numbers sessions by arrival.
	first := pickSite(cfg.Deploy, sess.ID, sess, demand)
	order := make([]int, 0, len(sims))
	order = append(order, first)
	for si := range sims {
		if si != first {
			order = append(order, si)
		}
	}
	for rank, si := range order {
		clone := *sess
		clone.Signal = SiteTrace(sess, cfg.Deploy.Sites[si], si)
		idx, err := sims[si].Admit(&clone)
		if err != nil {
			if errors.Is(err, cell.ErrOverCapacity) {
				continue
			}
			// Non-capacity errors are configuration bugs, not load.
			return stay{}, -1, fmt.Errorf("site %d (%s): %w", si, cfg.Deploy.Sites[si].Name, err)
		}
		ser, _ := sims[si].Serial(idx)
		return stay{site: si, idx: idx, ser: ser}, rank, nil
	}
	return stay{}, -1, nil
}
