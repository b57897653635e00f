package deploy

import (
	"context"
	"errors"
	"testing"

	"jointstream/internal/cell"
	"jointstream/internal/rng"
	"jointstream/internal/sched"
	"jointstream/internal/signal"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

func siteConfig() cell.Config {
	cfg := cell.PaperConfig()
	cfg.Capacity = 3000
	cfg.MaxSlots = 800
	return cfg
}

func twoSites() Config {
	return Config{
		Sites: []Site{
			{Name: "north", Cell: siteConfig(), SignalOffset: 0},
			{Name: "south", Cell: siteConfig(), SignalOffset: -15},
		},
		Policy: StrongestSignal,
	}
}

func smallSessions(t *testing.T, n int) []*workload.Session {
	t.Helper()
	cfg := workload.PaperDefaults(n)
	cfg.SizeMin = 5 * units.Megabyte
	cfg.SizeMax = 10 * units.Megabyte
	cfg.Signal.PeriodSlots = 24
	wl, err := workload.Generate(cfg, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

func defaultFactory() (sched.Scheduler, error) { return sched.NewDefault(), nil }

func TestConfigValidate(t *testing.T) {
	good := twoSites()
	if err := good.validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if err := (Config{}).validate(); err == nil {
		t.Error("empty sites accepted")
	}
	bad := twoSites()
	bad.Sites[0].Cell.Tau = 0
	if err := bad.validate(); err == nil {
		t.Error("invalid site cell config accepted")
	}
	bad2 := twoSites()
	bad2.Policy = Policy(99)
	if err := bad2.validate(); err == nil {
		t.Error("unknown policy accepted")
	}
	bad3 := twoSites()
	bad3.AssessSlots = -1
	if err := bad3.validate(); err == nil {
		t.Error("negative assessment window accepted")
	}
}

func TestPolicyString(t *testing.T) {
	if StrongestSignal.String() != "strongest-signal" ||
		RoundRobin.String() != "round-robin" ||
		LeastLoaded.String() != "least-loaded" {
		t.Error("policy strings wrong")
	}
	if Policy(7).String() != "Policy(7)" {
		t.Error("unknown policy string wrong")
	}
}

func TestRunValidation(t *testing.T) {
	sessions := smallSessions(t, 4)
	if _, err := Run(context.Background(), Config{}, sessions, defaultFactory); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := Run(context.Background(), twoSites(), nil, defaultFactory); err == nil {
		t.Error("no sessions accepted")
	}
	if _, err := Run(context.Background(), twoSites(), sessions, nil); err == nil {
		t.Error("nil factory accepted")
	}
}

func TestStrongestSignalPrefersUnattenuatedSite(t *testing.T) {
	// Site "south" is 15 dB weaker for everyone: strongest-signal must
	// put every user on "north".
	res, err := Run(context.Background(), twoSites(), smallSessions(t, 6), defaultFactory)
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range res.Placements {
		if pl.Site != 0 {
			t.Errorf("user %d attached to attenuated site", pl.User)
		}
	}
	if res.Fleet.PerSite[0].Users == 0 {
		t.Fatal("north site has no users")
	}
	if res.Fleet.PerSite[1] != (SiteTotals{}) || res.Fleet.EmptySites != 1 {
		t.Error("empty south site has a result")
	}
}

func TestRoundRobinSplitsUsers(t *testing.T) {
	cfg := twoSites()
	cfg.Policy = RoundRobin
	res, err := Run(context.Background(), cfg, smallSessions(t, 6), defaultFactory)
	if err != nil {
		t.Fatal(err)
	}
	counts := [2]int{}
	for _, pl := range res.Placements {
		counts[pl.Site]++
	}
	if counts[0] != 3 || counts[1] != 3 {
		t.Errorf("round robin split = %v", counts)
	}
	if res.Fleet.PerSite[0].Users != 3 || res.Fleet.PerSite[1].Users != 3 {
		t.Errorf("per-site results: %+v", res.Fleet.PerSite)
	}
}

func TestLeastLoadedBalancesDemand(t *testing.T) {
	cfg := twoSites()
	cfg.Policy = LeastLoaded
	sessions := smallSessions(t, 8)
	res, err := Run(context.Background(), cfg, sessions, defaultFactory)
	if err != nil {
		t.Fatal(err)
	}
	var demand [2]units.KBps
	for _, pl := range res.Placements {
		demand[pl.Site] += sessions[pl.User].BaseRate
	}
	// Demands should be within one max-rate of each other.
	diff := float64(demand[0] - demand[1])
	if diff < 0 {
		diff = -diff
	}
	if diff > 600 {
		t.Errorf("least-loaded imbalance: %v vs %v", demand[0], demand[1])
	}
}

func TestAggregatesMatchPerSite(t *testing.T) {
	cfg := twoSites()
	cfg.Policy = RoundRobin
	res, err := Run(context.Background(), cfg, smallSessions(t, 6), defaultFactory)
	if err != nil {
		t.Fatal(err)
	}
	var energy units.MJ
	var reb units.Seconds
	for _, r := range res.Fleet.PerSite {
		energy += r.Energy
		reb += r.Rebuffer
	}
	if res.TotalEnergy() != energy || res.TotalRebuffer() != reb {
		t.Error("aggregate mismatch")
	}
	if len(res.Placements) != 6 {
		t.Errorf("%d placements", len(res.Placements))
	}
}

func TestOffloadingReducesContention(t *testing.T) {
	// One congested site versus two sites sharing the same users: the
	// two-site deployment must strictly cut total rebuffering.
	sessions := smallSessions(t, 10)

	single := Config{
		Sites:  []Site{{Name: "only", Cell: siteConfig()}},
		Policy: RoundRobin,
	}
	resSingle, err := Run(context.Background(), single, smallSessions(t, 10), defaultFactory)
	if err != nil {
		t.Fatal(err)
	}
	dual := Config{
		Sites: []Site{
			{Name: "a", Cell: siteConfig()},
			{Name: "b", Cell: siteConfig()},
		},
		Policy: RoundRobin,
	}
	resDual, err := Run(context.Background(), dual, sessions, defaultFactory)
	if err != nil {
		t.Fatal(err)
	}
	if resDual.TotalRebuffer() >= resSingle.TotalRebuffer() {
		t.Errorf("offloading did not help: single %v, dual %v",
			resSingle.TotalRebuffer(), resDual.TotalRebuffer())
	}
}

func TestMisassignmentDiagnostic(t *testing.T) {
	// With equal offsets the strongest site is ambiguous and noise makes
	// the other site win some slots: the diagnostic must be positive but
	// bounded by the total.
	cfg := Config{
		Sites: []Site{
			{Name: "a", Cell: siteConfig(), ShadowStd: 6},
			{Name: "b", Cell: siteConfig(), ShadowStd: 6},
		},
		Policy: StrongestSignal,
	}
	sessions := smallSessions(t, 6)
	res, err := Run(context.Background(), cfg, sessions, defaultFactory)
	if err != nil {
		t.Fatal(err)
	}
	mis, total := Misassignment(cfg, sessions, res)
	if total <= 0 {
		t.Fatal("no slots accounted")
	}
	if mis < 0 || mis > total {
		t.Errorf("misassigned %d of %d", mis, total)
	}
	// Co-located sites with independent 6 dB shadowing: the other site
	// should beat the serving one by >=3 dB in a nontrivial share of slots.
	if mis == 0 {
		t.Error("expected some misassigned slots with co-located sites")
	}
}

func TestSiteTraceClamps(t *testing.T) {
	s := &workload.Session{Signal: signal.Constant(-105, signal.DefaultBounds)}
	tr := siteTrace(s, Site{SignalOffset: -20}, 0)
	if got := tr.At(0); got != -110 {
		t.Errorf("offset trace = %v, want clamped -110", got)
	}
	tr2 := siteTrace(s, Site{SignalOffset: +100}, 0)
	if got := tr2.At(0); got != -50 {
		t.Errorf("offset trace = %v, want clamped -50", got)
	}
}

func TestSiteTraceShadowingDeterministic(t *testing.T) {
	s := &workload.Session{ID: 3, Signal: signal.Constant(-80, signal.DefaultBounds)}
	site := Site{ShadowStd: 6}
	a := siteTrace(s, site, 1)
	b := siteTrace(s, site, 1)
	for n := 0; n < 50; n++ {
		if a.At(n) != b.At(n) {
			t.Fatal("shadowed trace not deterministic")
		}
	}
	// Different sites (or users) decorrelate.
	c := siteTrace(s, site, 2)
	same := 0
	for n := 0; n < 50; n++ {
		if a.At(n) == c.At(n) {
			same++
		}
	}
	if same > 5 {
		t.Errorf("site shadowing correlated: %d/50 identical", same)
	}
}

func TestSchedulerFactoryErrorPropagates(t *testing.T) {
	boom := errors.New("no scheduler")
	_, err := Run(context.Background(), twoSites(), smallSessions(t, 4), func() (sched.Scheduler, error) {
		return nil, boom
	})
	if !errors.Is(err, boom) {
		t.Errorf("factory error lost: %v", err)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, twoSites(), smallSessions(t, 4), defaultFactory)
	if err == nil {
		t.Error("cancelled context accepted")
	}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg := twoSites()
	cfg.Policy = RoundRobin
	run := func(workers int) (*Result, error) {
		c := cfg
		c.Workers = workers
		return Run(context.Background(), c, smallSessions(t, 6), defaultFactory)
	}
	a, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(4)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalEnergy() != b.TotalEnergy() || a.TotalRebuffer() != b.TotalRebuffer() {
		t.Error("results depend on worker count")
	}
}

// TestSiteTraceFillMatchesAt: the site-shifted trace's Fill is its At, bit
// for bit, with and without shadowing, over a memoizing base with no
// Filler (its At is a memo read), a stateless base and a constant.
func TestSiteTraceFillMatchesAt(t *testing.T) {
	sine := workload.PaperDefaults(1).Signal
	memo, err := signal.NewRandomWalk(signal.RandomWalkConfig{Bounds: signal.DefaultBounds, Start: -80, StepStd: 5}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	memo.(signal.Prewarmer).Prewarm(300)
	stateless, err := signal.NewStatelessSine(sine, 5)
	if err != nil {
		t.Fatal(err)
	}
	bases := map[string]signal.Trace{
		"memo": memo, "stateless": stateless, "constant": signal.Constant(-58, signal.DefaultBounds),
	}
	sites := map[string]Site{
		"offset":          {SignalOffset: -15},
		"offset+shadow":   {SignalOffset: 7, ShadowStd: 6},
		"shadow-clamping": {SignalOffset: -40, ShadowStd: 25},
	}
	src := rng.New(2)
	for bn, base := range bases {
		for sn, site := range sites {
			tr := siteTrace(&workload.Session{ID: 3, Signal: base}, site, 1)
			if _, ok := tr.(signal.Filler); !ok {
				t.Fatal("site trace does not implement signal.Filler")
			}
			for trial := 0; trial < 100; trial++ {
				from, n := src.Intn(230), src.Intn(70)
				dst := make([]units.DBm, n)
				signal.Fill(tr, dst, from)
				for k, got := range dst {
					if want := tr.At(from + k); got != want {
						t.Fatalf("%s/%s: Fill(from=%d)[%d] = %v, At = %v", bn, sn, from, k, got, want)
					}
				}
			}
		}
	}
}
