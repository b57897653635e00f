package deploy

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"jointstream/internal/cell"
	"jointstream/internal/sched"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// openFleetConfig is the base churn setup: two sites, Poisson arrivals
// over 300 slots, a third of the sessions abandoning.
func openFleetConfig() OpenFleetConfig {
	dep := twoSites()
	dep.EpochSlots = 32
	churn := workload.PaperDefaults(1)
	churn.SizeMin = 2 * units.Megabyte
	churn.SizeMax = 5 * units.Megabyte
	churn.Signal.PeriodSlots = 48
	return OpenFleetConfig{
		Deploy:       dep,
		Open:         cell.OpenConfig{MaxSessions: 24, WindowSlots: 64, Windows: 2},
		Churn:        churn,
		Arrivals:     workload.PoissonArrivals{MeanInterarrival: 10},
		ArrivalSlots: 300,
		Stays:        workload.ExpDepartures{MeanStaySlots: 120},
		AbandonFrac:  0.33,
		Seed:         77,
	}
}

func TestOpenFleetConfigValidate(t *testing.T) {
	if err := openFleetConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	muts := []func(*OpenFleetConfig){
		func(c *OpenFleetConfig) { c.Deploy.Sites = nil },
		func(c *OpenFleetConfig) { c.Arrivals = nil },
		func(c *OpenFleetConfig) { c.ArrivalSlots = 0 },
		func(c *OpenFleetConfig) { c.AbandonFrac = 1.5 },
		func(c *OpenFleetConfig) { c.Stays = nil }, // AbandonFrac > 0 without a law
		func(c *OpenFleetConfig) { c.MaxSlots = -1 },
		// Open sites take no outage windows: refuse them rather than drop them.
		func(c *OpenFleetConfig) { c.Deploy.Outages = []SiteOutage{{Site: 1, From: 3, To: 9}} },
	}
	for i, m := range muts {
		c := openFleetConfig()
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	outage := openFleetConfig()
	outage.Deploy.Outages = []SiteOutage{{Site: 0, From: 1, To: 2}}
	if err := outage.Validate(); err == nil || !strings.Contains(err.Error(), "Deploy.Outages") {
		t.Errorf("outage error %v does not name Deploy.Outages", err)
	}
	if _, err := RunOpenFleet(context.Background(), openFleetConfig(), nil); err == nil {
		t.Error("nil scheduler factory accepted")
	}
}

// TestOpenFleetChurn drives the full open-system fleet story: arrivals,
// placement, abandonment, drain — then audits the session ledger and
// pins determinism and worker-count invariance of the whole run.
func TestOpenFleetChurn(t *testing.T) {
	run := func(workers int) *OpenFleetResult {
		cfg := openFleetConfig()
		cfg.Deploy.Workers = workers
		res, err := RunOpenFleet(context.Background(), cfg, defaultFactory)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run(1)
	if res.Admitted == 0 || res.Completed == 0 {
		t.Fatalf("degenerate run: %+v", res)
	}
	if !res.Drained || res.InService != 0 {
		t.Fatalf("fleet did not drain: %+v", res)
	}
	if res.Admitted != res.Completed+res.Departed {
		t.Fatalf("session ledger leaks: %+v", res)
	}
	sumAdmitted := 0
	for si, st := range res.PerSite {
		if st.InService != 0 {
			t.Errorf("site %d still serving %d sessions", si, st.InService)
		}
		sumAdmitted += st.Admitted
	}
	if sumAdmitted != res.Admitted {
		t.Fatalf("per-site admissions %d != fleet %d", sumAdmitted, res.Admitted)
	}
	if res.Energy <= 0 || res.DeliveredKB <= 0 {
		t.Fatalf("no service delivered: %+v", res)
	}
	for _, workers := range []int{2, 4} {
		got := run(workers)
		same := got.Admitted == res.Admitted && got.Spilled == res.Spilled &&
			got.Rejected == res.Rejected && got.Completed == res.Completed &&
			got.Departed == res.Departed && got.Epochs == res.Epochs &&
			got.Slots == res.Slots && got.Energy == res.Energy &&
			got.Rebuffer == res.Rebuffer && got.DeliveredKB == res.DeliveredKB &&
			got.PerSite[0] == res.PerSite[0] && got.PerSite[1] == res.PerSite[1]
		if !same {
			t.Errorf("workers=%d: fleet result diverged:\n%+v\nvs\n%+v", workers, got, res)
		}
	}
}

// TestOpenFleetPolicies runs every attachment policy through the churn
// loop; the spreading policies must actually populate both sites.
func TestOpenFleetPolicies(t *testing.T) {
	for _, policy := range []Policy{StrongestSignal, RoundRobin, LeastLoaded} {
		cfg := openFleetConfig()
		cfg.Deploy.Policy = policy
		res, err := RunOpenFleet(context.Background(), cfg, defaultFactory)
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if res.Admitted != res.Completed+res.Departed+res.InService {
			t.Fatalf("%v: ledger leaks: %+v", policy, res)
		}
		if policy != StrongestSignal {
			// Both spreading policies must actually use the weak site.
			if res.PerSite[0].Admitted == 0 || res.PerSite[1].Admitted == 0 {
				t.Errorf("%v: lopsided placement: %+v", policy, res.PerSite)
			}
		}
	}
}

// TestOpenFleetSpillAndReject squeezes the fleet: one-session sites and
// a dense arrival burst force spills to the second choice and, once
// every site is full, fleet-level rejections — while the ledger stays
// conserved.
func TestOpenFleetSpillAndReject(t *testing.T) {
	cfg := openFleetConfig()
	cfg.Open.MaxSessions = 1
	cfg.Arrivals = workload.PoissonArrivals{MeanInterarrival: 2}
	cfg.ArrivalSlots = 200
	cfg.AbandonFrac = 0
	cfg.Stays = nil
	res, err := RunOpenFleet(context.Background(), cfg, defaultFactory)
	if err != nil {
		t.Fatal(err)
	}
	if res.Spilled == 0 {
		t.Errorf("crowded fleet never spilled: %+v", res)
	}
	if res.Rejected == 0 {
		t.Errorf("full fleet never rejected: %+v", res)
	}
	if res.Admitted != res.Completed+res.Departed+res.InService {
		t.Fatalf("ledger leaks: %+v", res)
	}
	for si, st := range res.PerSite {
		if st.InService > cfg.Open.MaxSessions {
			t.Errorf("site %d exceeded its session cap: %+v", si, st)
		}
	}
}

// wedgedScheduler allocates normally until slot wedgeAt, then blocks
// forever — the failure mode the epoch watchdog exists for.
type wedgedScheduler struct {
	inner   sched.Scheduler
	wedgeAt int
}

func (w *wedgedScheduler) Name() string { return "wedged" }

func (w *wedgedScheduler) Allocate(slot *sched.Slot, alloc []int) {
	if slot.N >= w.wedgeAt {
		select {} // wedge: no context check, no return
	}
	w.inner.Allocate(slot, alloc)
}

// TestEpochWatchdogStalls: a scheduler that wedges mid-run trips the
// watchdog, which surfaces a typed *EpochStalledError instead of
// hanging the fleet.
func TestEpochWatchdogStalls(t *testing.T) {
	cfg := twoSites()
	cfg.Stream = true
	cfg.EpochSlots = 64
	cfg.EpochTimeout = 100 * time.Millisecond
	sessions := smallSessions(t, 6)
	_, err := Run(context.Background(), cfg, sessions, func() (sched.Scheduler, error) {
		return &wedgedScheduler{inner: sched.NewDefault(), wedgeAt: 5}, nil
	})
	var stalled *EpochStalledError
	if !errors.As(err, &stalled) {
		t.Fatalf("wedged run returned %v, want *EpochStalledError", err)
	}
	if stalled.Timeout != cfg.EpochTimeout || stalled.UptoSlot <= 0 {
		t.Fatalf("stall fields: %+v", stalled)
	}
}

// TestEpochWatchdogQuiescent: a healthy run under a generous watchdog
// finishes with metrics identical to the unwatched run.
func TestEpochWatchdogQuiescent(t *testing.T) {
	run := func(timeout time.Duration) *Result {
		cfg := twoSites()
		cfg.Stream = true
		cfg.EpochSlots = 128
		cfg.EpochTimeout = timeout
		res, err := Run(context.Background(), cfg, smallSessions(t, 6), defaultFactory)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, watched := run(0), run(time.Minute)
	if plain.Fleet.Energy != watched.Fleet.Energy ||
		plain.Fleet.Rebuffer != watched.Fleet.Rebuffer ||
		plain.Fleet.Users != watched.Fleet.Users ||
		plain.Fleet.Epochs != watched.Fleet.Epochs {
		t.Fatalf("watchdog perturbed the run:\n%+v\nvs\n%+v", plain.Fleet, watched.Fleet)
	}
}

// TestOpenFleetWatchdog: the watchdog also guards the open-system
// runner.
func TestOpenFleetWatchdog(t *testing.T) {
	cfg := openFleetConfig()
	cfg.Deploy.EpochTimeout = 100 * time.Millisecond
	res, err := RunOpenFleet(context.Background(), cfg, func() (sched.Scheduler, error) {
		return &wedgedScheduler{inner: sched.NewDefault(), wedgeAt: 5}, nil
	})
	var stalled *EpochStalledError
	if !errors.As(err, &stalled) {
		t.Fatalf("wedged open fleet returned (%+v, %v), want *EpochStalledError", res, err)
	}
}
