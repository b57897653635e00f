package deploy

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"jointstream/internal/rng"
	"jointstream/internal/sched"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// fleetConfig builds a deployment whose sites differ (capacity, offsets,
// an outage) so the streaming fold has real structure to preserve, with
// tiled link windows and stateless traces — the fleet-scale setup.
func fleetConfig(sites int) Config {
	cfg := Config{Policy: RoundRobin, Stream: true, EpochSlots: 64}
	for i := 0; i < sites; i++ {
		c := siteConfig()
		c.MaxSlots = 400 + 50*(i%3) // ragged horizons exercise staggered completion
		c.LinkTileSlots = 32
		cfg.Sites = append(cfg.Sites, Site{
			Name:         "site",
			Cell:         c,
			SignalOffset: units.DBm(-2 * i),
		})
	}
	cfg.Outages = []SiteOutage{{Site: 0, From: 100, To: 140}}
	return cfg
}

func fleetSessions(t *testing.T, n int) []*workload.Session {
	t.Helper()
	cfg := workload.PaperDefaults(n)
	cfg.SizeMin = 4 * units.Megabyte
	cfg.SizeMax = 8 * units.Megabyte
	cfg.Signal.PeriodSlots = 24
	cfg.StatelessSignal = true
	wl, err := workload.Generate(cfg, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

// denseFleet is two sites of 2 500 users each — above the engine's
// small-N serial cutoff (2 048 live users), which fleetConfig's 8 per cell
// never reach — at 50 MB/s per site, so the first sessions complete and
// leave tails while the rest wait. With cellWorkers > 1 the sites run one
// after the other, so the worker budget goes to each cell's shards and the
// tick really fans out inside a streamed, tiled cell.
func denseFleet(cellWorkers int) Config {
	cfg := Config{Policy: RoundRobin, Stream: true, EpochSlots: 64}
	if cellWorkers > 1 {
		cfg.Workers = 1
	}
	for i := 0; i < 2; i++ {
		c := siteConfig()
		c.Capacity = 50_000
		c.MaxSlots = 96
		c.RunFullHorizon = true
		c.LinkTileSlots = 32
		c.Workers = cellWorkers
		cfg.Sites = append(cfg.Sites, Site{Name: "site", Cell: c, SignalOffset: units.DBm(-2 * i)})
	}
	return cfg
}

// TestStreamMatchesRetained is the streaming keystone: on every metric
// the two modes share, the folded fleet aggregates equal the retained
// mode's accessors exactly (==, not a tolerance) — same sums in the same
// order — and the per-epoch series re-adds to the same totals.
func TestStreamMatchesRetained(t *testing.T) {
	dense := fleetSessions(t, 5000)
	for _, in := range []struct {
		name     string
		sessions []*workload.Session
		cfg      Config
	}{
		{"5 ragged sites of 8", fleetSessions(t, 40), fleetConfig(5)},
		{"2 sites of 2500, serial cells", dense, denseFleet(1)},
		{"2 sites of 2500, sharded cells", dense, denseFleet(4)},
	} {
		t.Run(in.name, func(t *testing.T) { streamMatchesRetained(t, in.sessions, in.cfg) })
	}
}

func streamMatchesRetained(t *testing.T, sessions []*workload.Session, cfg Config) {
	cfg.Stream = false
	retained, err := Run(context.Background(), cfg, sessions, defaultFactory)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Stream = true
	streamed, err := Run(context.Background(), cfg, sessions, defaultFactory)
	if err != nil {
		t.Fatal(err)
	}

	if streamed.Fleet == nil || streamed.PerSite != nil {
		t.Fatal("streaming result shape wrong")
	}
	if retained.Fleet != nil {
		t.Fatal("retained result carries fleet metrics")
	}
	if streamed.TotalEnergy() != retained.TotalEnergy() {
		t.Fatalf("energy: stream %v != retained %v", streamed.TotalEnergy(), retained.TotalEnergy())
	}
	if streamed.TotalRebuffer() != retained.TotalRebuffer() {
		t.Fatalf("rebuffer: stream %v != retained %v", streamed.TotalRebuffer(), retained.TotalRebuffer())
	}
	if streamed.DegradedSlots() != retained.DegradedSlots() {
		t.Fatalf("degraded: stream %d != retained %d", streamed.DegradedSlots(), retained.DegradedSlots())
	}
	if streamed.Users() != retained.Users() {
		t.Fatalf("users: stream %d != retained %d", streamed.Users(), retained.Users())
	}
	fl := streamed.Fleet
	if fl.Users != len(sessions) || fl.Sites != len(cfg.Sites) || fl.EmptySites != 0 {
		t.Fatalf("fleet shape: %+v", fl)
	}

	// Cross-check the folded tail energy and slot horizon against the
	// retained per-site results.
	var tail units.MJ
	maxSlots, clamps := 0, 0
	for _, res := range retained.PerSite {
		if res == nil {
			continue
		}
		tail += res.TotalTailEnergy()
		clamps += res.ClampEvents
		if res.Slots > maxSlots {
			maxSlots = res.Slots
		}
	}
	if fl.TailEnergy != tail || fl.Slots != maxSlots || fl.ClampEvents != clamps {
		t.Fatalf("tail/slots/clamps: (%v,%d,%d) != (%v,%d,%d)",
			fl.TailEnergy, fl.Slots, fl.ClampEvents, tail, maxSlots, clamps)
	}

	// The per-epoch series is a partition of the run: re-summing it must
	// reproduce the totals to float tolerance (different addition order).
	var epochEnergy, epochRebuf float64
	for _, e := range fl.PerEpoch {
		epochEnergy += float64(e.Energy)
		epochRebuf += float64(e.Rebuffer)
	}
	if math.Abs(epochEnergy-float64(fl.Energy)) > 1e-6*math.Max(1, float64(fl.Energy)) {
		t.Fatalf("per-epoch energy %v != total %v", epochEnergy, fl.Energy)
	}
	if math.Abs(epochRebuf-float64(fl.Rebuffer)) > 1e-6*math.Max(1, float64(fl.Rebuffer)) {
		t.Fatalf("per-epoch rebuffer %v != total %v", epochRebuf, fl.Rebuffer)
	}
	wantEpochs := (maxSlots + cfg.EpochSlots - 1) / cfg.EpochSlots
	if fl.Epochs != wantEpochs || len(fl.PerEpoch) != wantEpochs {
		t.Fatalf("epochs %d (series %d), want %d", fl.Epochs, len(fl.PerEpoch), wantEpochs)
	}

	// Histograms saw every user exactly once, with exact extremes/sums.
	if fl.RebufferPerUser.Count() != uint64(len(sessions)) || fl.EnergyPerUser.Count() != uint64(len(sessions)) {
		t.Fatalf("hist counts %d/%d", fl.RebufferPerUser.Count(), fl.EnergyPerUser.Count())
	}
	if units.MJ(fl.EnergyPerUser.Sum()) != fl.Energy {
		// Per-user energy folds in retire order; allow only float
		// reassociation, nothing more.
		if math.Abs(fl.EnergyPerUser.Sum()-float64(fl.Energy)) > 1e-6*float64(fl.Energy) {
			t.Fatalf("hist energy sum %v != %v", fl.EnergyPerUser.Sum(), fl.Energy)
		}
	}
}

// TestStreamDeterministicAcrossWorkersAndEpochs: the streamed fleet
// metrics are byte-identical for any worker count and for any epoch
// size — concurrency and batching are scheduling detail, never physics.
func TestStreamDeterministicAcrossWorkersAndEpochs(t *testing.T) {
	sessions := fleetSessions(t, 30)
	base := fleetConfig(4)
	run := func(workers, epochSlots int) *FleetMetrics {
		t.Helper()
		cfg := base
		cfg.Workers = workers
		if epochSlots != 0 {
			cfg.EpochSlots = epochSlots
		}
		res, err := Run(context.Background(), cfg, sessions, defaultFactory)
		if err != nil {
			t.Fatal(err)
		}
		return res.Fleet
	}
	want := run(1, 0)
	for _, workers := range []int{2, 7, 0} {
		if got := run(workers, 0); !reflect.DeepEqual(want, got) {
			t.Fatalf("fleet metrics differ at workers=%d", workers)
		}
	}
	// Epoch size changes only the epoch series granularity; scalar totals
	// and histograms stay identical.
	odd := run(3, 17)
	if odd.Energy != want.Energy || odd.Rebuffer != want.Rebuffer ||
		odd.TailEnergy != want.TailEnergy || odd.DegradedSlots != want.DegradedSlots {
		t.Fatal("totals differ across epoch sizes")
	}
	if !reflect.DeepEqual(odd.RebufferPerUser, want.RebufferPerUser) ||
		!reflect.DeepEqual(odd.EnergyPerUser, want.EnergyPerUser) {
		t.Fatal("histograms differ across epoch sizes")
	}
}

// TestEmptySitesEveryAccessor: sites that receive no users stay nil in
// PerSite (retained) or count as EmptySites (streamed), and every Result
// accessor tolerates them.
func TestEmptySitesEveryAccessor(t *testing.T) {
	sessions := fleetSessions(t, 6)
	cfg := fleetConfig(4)
	// RoundRobin over 4 sites with 6 users fills all; starve sites
	// instead by attaching everyone to site 0.
	cfg.Policy = StrongestSignal
	for i := range cfg.Sites {
		cfg.Sites[i].SignalOffset = units.DBm(-30 * i)
		cfg.Sites[i].ShadowStd = 0
	}

	cfg.Stream = false
	retained, err := Run(context.Background(), cfg, sessions, defaultFactory)
	if err != nil {
		t.Fatal(err)
	}
	empties := 0
	for si, res := range retained.PerSite {
		if res == nil {
			empties++
		} else if si != 0 {
			t.Fatalf("site %d unexpectedly populated", si)
		}
	}
	if empties != len(cfg.Sites)-1 {
		t.Fatalf("%d empty sites, want %d", empties, len(cfg.Sites)-1)
	}
	// Every accessor must walk the nil entries without panicking.
	_ = retained.TotalEnergy()
	_ = retained.TotalRebuffer()
	_ = retained.DegradedSlots()
	if retained.Users() != len(sessions) {
		t.Fatalf("Users() = %d", retained.Users())
	}

	cfg.Stream = true
	streamed, err := Run(context.Background(), cfg, sessions, defaultFactory)
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Fleet.EmptySites != empties {
		t.Fatalf("EmptySites = %d, want %d", streamed.Fleet.EmptySites, empties)
	}
	if streamed.TotalEnergy() != retained.TotalEnergy() || streamed.TotalRebuffer() != retained.TotalRebuffer() {
		t.Fatal("stream != retained with empty sites")
	}
	if streamed.Fleet.Users != len(sessions) {
		t.Fatalf("fleet Users = %d", streamed.Fleet.Users)
	}
}

// TestLeastLoadedTieBreakDeterministic: equal demand must always break
// to the lowest site index, so identical configs place identically —
// with uniform rates the policy degenerates to exact round-robin.
func TestLeastLoadedTieBreakDeterministic(t *testing.T) {
	const users, sites = 12, 4
	cfg := fleetConfig(sites)
	cfg.Policy = LeastLoaded
	wlCfg := workload.PaperDefaults(users)
	wlCfg.RateMin, wlCfg.RateMax = 400, 400 // uniform demand: every step ties
	wlCfg.SizeMin, wlCfg.SizeMax = 4*units.Megabyte, 4*units.Megabyte
	wlCfg.StatelessSignal = true
	sessions, err := workload.Generate(wlCfg, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	want := assign(cfg, sessions, 10)
	for trial := 0; trial < 3; trial++ {
		got := assign(cfg, sessions, 10)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d: placements differ", trial)
		}
	}
	for ui, pl := range want {
		if pl.Site != ui%sites {
			t.Fatalf("user %d placed at site %d; uniform-rate LeastLoaded must round-robin (lowest index wins ties)", ui, pl.Site)
		}
	}
}

// TestStreamOnEpochAndValidation covers the epoch callback contract and
// the new config guards.
func TestStreamOnEpochAndValidation(t *testing.T) {
	sessions := fleetSessions(t, 12)
	cfg := fleetConfig(3)
	var infos []EpochInfo
	cfg.OnEpoch = func(e EpochInfo) { infos = append(infos, e) }
	res, err := Run(context.Background(), cfg, sessions, defaultFactory)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != res.Fleet.Epochs {
		t.Fatalf("%d callbacks for %d epochs", len(infos), res.Fleet.Epochs)
	}
	for i, e := range infos {
		if e.Epoch != i || e.UptoSlot != (i+1)*cfg.EpochSlots {
			t.Fatalf("epoch %d: %+v", i, e)
		}
	}
	last := infos[len(infos)-1]
	if last.ActiveSites != 0 || last.CompletedSites != len(cfg.Sites) {
		t.Fatalf("final epoch: %+v", last)
	}

	bad := fleetConfig(2)
	bad.EpochSlots = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative EpochSlots accepted")
	}
}

// TestStreamCancellation: a cancelled context aborts the epoch loop with
// an error rather than hanging or returning partial fleet metrics.
func TestStreamCancellation(t *testing.T) {
	sessions := fleetSessions(t, 12)
	cfg := fleetConfig(3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, cfg, sessions, defaultFactory); err == nil {
		t.Fatal("cancelled fleet run succeeded")
	}
}

// overAllocAfter is Default until slot from, then grants the first active
// user one unit past its Eq. (1) limit: a Strict cell fails at that slot.
type overAllocAfter struct {
	sched.Scheduler
	from int
}

func (s overAllocAfter) Allocate(slot *sched.Slot, alloc []int) {
	s.Scheduler.Allocate(slot, alloc)
	if slot.N >= s.from && len(slot.ActiveList) > 0 {
		i := slot.ActiveList[0]
		alloc[i] = slot.MaxUnitsAt(i) + 1
	}
}

// TestStreamFailGoroutineLeak: a streamed fleet whose cells are big enough
// to fill their link windows in the background fails in the middle of its
// second epoch — one cell's scheduler breaks Eq. (1) — and Run's error
// return strands nothing: the failed cell waited its fill out, the healthy
// one's ends with the block it was filling, and the process is back to the
// goroutines it had.
func TestStreamFailGoroutineLeak(t *testing.T) {
	sessions := fleetSessions(t, 5000)
	cfg := denseFleet(1)
	for i := range cfg.Sites {
		cfg.Sites[i].Cell.Strict = true
	}
	built := 0
	factory := func() (sched.Scheduler, error) {
		built++
		if built == 2 {
			return overAllocAfter{sched.NewDefault(), cfg.EpochSlots + 7}, nil
		}
		return sched.NewDefault(), nil
	}
	before := runtime.NumGoroutine()
	if _, err := Run(context.Background(), cfg, sessions, factory); err == nil {
		t.Fatal("fleet with an over-allocating scheduler succeeded")
	}
	// A goroutine that has finished its work takes a moment to be gone.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines before the failed run, %d after:\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}
