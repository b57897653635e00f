package main

// This file implements the chaos scenario: one clean baseline run plus
// one run per fault class (endpoint stall, delivery drop, connectivity
// flap, report loss, origin slow-read, origin early-EOF), all over the
// same seeded traffic, reporting how much rebuffering and device energy
// each fault class costs relative to the baseline — and how the
// degradation-tolerant gateway policy (slot deadlines, stale-report
// grace, backoff, breaker) absorbed it. A deploy-level row exercises a
// site outage window against the multi-cell runner.

import (
	"context"
	"fmt"
	"time"

	"jointstream/internal/cell"
	"jointstream/internal/deploy"
	"jointstream/internal/gateway"
	"jointstream/internal/radio"
	"jointstream/internal/rng"
	"jointstream/internal/rrc"
	"jointstream/internal/sched"
	"jointstream/internal/signal"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// chaosOptions parameterizes the chaos scenario.
type chaosOptions struct {
	// Seed roots both the fault plans and the deploy workload.
	Seed uint64
	// Users is the number of gateway sessions per run.
	Users int
	// VideoKB is each session's video size.
	VideoKB units.KB
	// MaxSlots bounds every gateway run.
	MaxSlots int
	// SlotDeadline is the async delivery deadline; stalls are injected an
	// order of magnitude longer, so a stalled endpoint deterministically
	// misses its slots.
	SlotDeadline time.Duration
}

// defaultChaosOptions returns a scenario that completes in a few
// seconds.
func defaultChaosOptions() chaosOptions {
	return chaosOptions{
		Seed:         42,
		Users:        4,
		VideoKB:      10000,
		MaxSlots:     600,
		SlotDeadline: 3 * time.Millisecond,
	}
}

// validate checks the options.
func (o chaosOptions) validate() error {
	if o.Users <= 0 {
		return fmt.Errorf("chaos needs at least one user, got %d", o.Users)
	}
	if o.VideoKB <= 0 {
		return fmt.Errorf("non-positive chaos video size %v", o.VideoKB)
	}
	if o.MaxSlots <= 0 {
		return fmt.Errorf("non-positive chaos slot cap %d", o.MaxSlots)
	}
	if o.SlotDeadline <= 0 {
		return fmt.Errorf("non-positive chaos slot deadline %v", o.SlotDeadline)
	}
	return nil
}

// chaosRow is one run's headline outcome.
type chaosRow struct {
	// Fault names the injected fault class ("baseline" for the clean run).
	Fault string
	// EnergyMJ and RebufferSec total the per-user gateway accounting.
	EnergyMJ    float64
	RebufferSec float64
	// DeltaEnergyMJ and DeltaRebufferSec are this row minus the baseline.
	DeltaEnergyMJ    float64
	DeltaRebufferSec float64
	// Completed counts sessions that delivered their whole video;
	// Detached counts users removed by the fatal/breaker/stale policies.
	Completed int
	Detached  int
	// Diag is the gateway's degradation diagnostics for the run.
	Diag gateway.Diag
}

// siteOutageRow is the deploy-level fault class: one site down for a
// window, versus the identical fleet undisturbed.
type siteOutageRow struct {
	BaselineEnergyMJ    float64
	OutageEnergyMJ      float64
	BaselineRebufferSec float64
	OutageRebufferSec   float64
	// DegradedSlots is the fleet total reported by the outage run.
	DegradedSlots int
}

// chaosReport is the full chaos scenario outcome.
type chaosReport struct {
	Baseline   chaosRow
	Rows       []chaosRow
	SiteOutage siteOutageRow
}

// chaosPlans returns the per-class fault plans, each rooted in the
// scenario seed.
func chaosPlans(o chaosOptions) []struct {
	name string
	plan faultPlan
} {
	return []struct {
		name string
		plan faultPlan
	}{
		{"stall", faultPlan{Seed: o.Seed, Endpoint: endpointPlan{
			StallProb: 0.25, StallFor: 10 * o.SlotDeadline,
		}}},
		{"drop", faultPlan{Seed: o.Seed, Endpoint: endpointPlan{DropProb: 0.25}}},
		{"flap", faultPlan{Seed: o.Seed, Endpoint: endpointPlan{
			FlapProb: 0.08, FlapSlots: 3,
		}}},
		{"report-loss", faultPlan{Seed: o.Seed, Endpoint: endpointPlan{ReportLossProb: 0.25}}},
		{"slow-read", faultPlan{Seed: o.Seed, Source: sourcePlan{
			SlowReadProb: 0.5, SlowReadMax: 100_000,
		}}},
		{"eof-early", faultPlan{Seed: o.Seed, Source: sourcePlan{
			EOFEarlyAfter: int64(float64(o.VideoKB) * 1000 / 2),
		}}},
	}
}

// chaosGatewayRun drives one gateway run with every user wrapped by the
// plan and summarizes it as a row.
func chaosGatewayRun(o chaosOptions, name string, plan faultPlan) (chaosRow, error) {
	cfg := gateway.Config{
		Tau:  1,
		Unit: 100,
		// Tight capacity: sessions span many slots, so probabilistic
		// faults fire and degradation is visible.
		Capacity: 2000,
		Radio:    radio.Paper3G(),
		RRC:      rrc.Paper3G(),
		QueueCap: 10000,
		Policy: gateway.Policy{
			AsyncDelivery: true,
			SlotDeadline:  o.SlotDeadline,
			// Stalls an order of magnitude past the deadline resolve
			// within tens of slots; a roomy breaker keeps transiently
			// stalled users attached while still bounding true loss.
			BreakerTrips: 50,
		},
	}
	g, err := gateway.New(cfg, sched.NewDefault())
	if err != nil {
		return chaosRow{}, err
	}
	defer g.Close()
	for i := 0; i < o.Users; i++ {
		ep, err := gateway.NewLocalEndpoint(signal.Constant(-60, signal.DefaultBounds), 400, false)
		if err != nil {
			return chaosRow{}, err
		}
		src, err := gateway.NewPatternSource(o.VideoKB)
		if err != nil {
			return chaosRow{}, err
		}
		if _, err := g.Attach(plan.wrapEndpoint(i, ep), plan.wrapSource(i, src)); err != nil {
			return chaosRow{}, err
		}
	}
	for n := 0; n < o.MaxSlots && !g.AllDone(); n++ {
		if _, err := g.Step(); err != nil {
			return chaosRow{}, err
		}
		// Injected stalls resolve on the wall clock; idle slots (every
		// user in flight or backing off) must not spin past them.
		time.Sleep(o.SlotDeadline / 4)
	}
	row := chaosRow{Fault: name, Diag: g.Diagnostics()}
	for i := 0; i < o.Users; i++ {
		st, err := g.StatsFor(i)
		if err != nil {
			return chaosRow{}, err
		}
		row.EnergyMJ += float64(st.Energy())
		row.RebufferSec += float64(st.RebufferSec)
		if st.Done {
			row.Completed++
		}
		if st.Detached {
			row.Detached++
		}
	}
	return row, nil
}

// chaosDeployRun runs the two-site fleet with and without a mid-run
// outage of site 0.
func chaosDeployRun(o chaosOptions) (siteOutageRow, error) {
	siteCell := cell.PaperConfig()
	siteCell.Capacity = 3000
	siteCell.MaxSlots = 800
	mkCfg := func() deploy.Config {
		return deploy.Config{
			Sites: []deploy.Site{
				{Name: "north", Cell: siteCell},
				{Name: "south", Cell: siteCell, SignalOffset: -10},
			},
			Policy: deploy.RoundRobin,
		}
	}
	wlCfg := workload.PaperDefaults(6).WithAvgSize(8000)
	wlCfg.Signal.PeriodSlots = 24
	mkSessions := func() ([]*workload.Session, error) {
		return workload.Generate(wlCfg, rng.New(o.Seed))
	}
	factory := func() (sched.Scheduler, error) { return sched.NewDefault(), nil }

	base, err := mkSessions()
	if err != nil {
		return siteOutageRow{}, err
	}
	baseRes, err := deploy.Run(context.Background(), mkCfg(), base, factory)
	if err != nil {
		return siteOutageRow{}, err
	}
	outCfg := mkCfg()
	outCfg.Outages = []deploy.SiteOutage{{Site: 0, From: 5, To: 30}}
	outSessions, err := mkSessions()
	if err != nil {
		return siteOutageRow{}, err
	}
	outRes, err := deploy.Run(context.Background(), outCfg, outSessions, factory)
	if err != nil {
		return siteOutageRow{}, err
	}
	return siteOutageRow{
		BaselineEnergyMJ:    float64(baseRes.TotalEnergy()),
		OutageEnergyMJ:      float64(outRes.TotalEnergy()),
		BaselineRebufferSec: float64(baseRes.TotalRebuffer()),
		OutageRebufferSec:   float64(outRes.TotalRebuffer()),
		DegradedSlots:       outRes.DegradedSlots(),
	}, nil
}

// RunChaos executes the chaos scenario and returns the report.
func runChaosScenario(o chaosOptions) (*chaosReport, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	baseline, err := chaosGatewayRun(o, "baseline", faultPlan{})
	if err != nil {
		return nil, err
	}
	rep := &chaosReport{Baseline: baseline}
	for _, c := range chaosPlans(o) {
		if err := c.plan.validate(); err != nil {
			return nil, fmt.Errorf("chaos plan %s: %w", c.name, err)
		}
		row, err := chaosGatewayRun(o, c.name, c.plan)
		if err != nil {
			return nil, fmt.Errorf("chaos run %s: %w", c.name, err)
		}
		row.DeltaEnergyMJ = row.EnergyMJ - baseline.EnergyMJ
		row.DeltaRebufferSec = row.RebufferSec - baseline.RebufferSec
		rep.Rows = append(rep.Rows, row)
	}
	site, err := chaosDeployRun(o)
	if err != nil {
		return nil, fmt.Errorf("chaos site outage: %w", err)
	}
	rep.SiteOutage = site
	return rep, nil
}

// Render formats the report as an aligned text table.
func (r *chaosReport) Render() string {
	out := fmt.Sprintf("%-12s %12s %12s %12s %12s %5s %5s %s\n",
		"fault", "energy(mJ)", "rebuf(s)", "Δenergy", "Δrebuf", "done", "det", "diagnostics")
	line := func(row chaosRow) string {
		return fmt.Sprintf("%-12s %12.1f %12.1f %+12.1f %+12.1f %5d %5d trans=%d missed=%d stale=%d reattach=%d breaker=%d fatal=%d\n",
			row.Fault, row.EnergyMJ, row.RebufferSec, row.DeltaEnergyMJ, row.DeltaRebufferSec,
			row.Completed, row.Detached,
			row.Diag.TransientErrors, row.Diag.MissedDeadlines, row.Diag.StaleSlots,
			row.Diag.Reattaches, row.Diag.BreakerOpens, row.Diag.FatalErrors)
	}
	out += line(r.Baseline)
	for _, row := range r.Rows {
		out += line(row)
	}
	out += fmt.Sprintf("site-outage: energy %.1f -> %.1f mJ, rebuffer %.1f -> %.1f s, degraded slots %d\n",
		r.SiteOutage.BaselineEnergyMJ, r.SiteOutage.OutageEnergyMJ,
		r.SiteOutage.BaselineRebufferSec, r.SiteOutage.OutageRebufferSec,
		r.SiteOutage.DegradedSlots)
	return out
}
