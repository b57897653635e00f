package deploy

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"jointstream/internal/cell"
	"jointstream/internal/rng"
	"jointstream/internal/sched"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// fleetConfig builds a deployment whose sites differ (capacity, offsets,
// an outage) so the fleet's fold has real structure to preserve, with
// tiled link windows and stateless traces — the fleet-scale setup.
func fleetConfig(sites int) Config {
	cfg := Config{Policy: RoundRobin, EpochSlots: 64}
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
// tick really fans out inside a lockstep, tiled cell.
func denseFleet(cellWorkers int) Config {
	cfg := Config{Policy: RoundRobin, EpochSlots: 64}
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

// outageFleet is fleetConfig's three sites with site 1 down while its
// sessions are still playing (fleetConfig's own window opens after every
// session finished).
func outageFleet() Config {
	cfg := fleetConfig(3)
	cfg.Outages = []SiteOutage{{Site: 1, From: 5, To: 25}}
	return cfg
}

// oneShot is the fleet's oracle, the only place a cell still runs whole:
// each populated site's sessions, cloned in placement order with their
// site traces, through one cell.New closed engine and Run — built here,
// not through the fleet's Run, with the site's outage windows.
// Empty sites' entries are nil.
func oneShot(t *testing.T, cfg Config, sessions []*workload.Session, placements []Placement) []*cell.Result {
	t.Helper()
	perSite := make([][]*workload.Session, len(cfg.Sites))
	for _, pl := range placements {
		clone := *sessions[pl.User]
		clone.ID = len(perSite[pl.Site])
		clone.Signal = siteTrace(sessions[pl.User], cfg.Sites[pl.Site], pl.Site)
		perSite[pl.Site] = append(perSite[pl.Site], &clone)
	}
	cells := make([]*cell.Result, len(cfg.Sites))
	for si, ss := range perSite {
		if len(ss) == 0 {
			continue
		}
		c := cfg.Sites[si].Cell
		for _, o := range cfg.Outages {
			if o.Site == si {
				c.Outages = append(c.Outages[:len(c.Outages):len(c.Outages)], cell.Outage{From: o.From, To: o.To})
			}
		}
		sim, err := cell.New(c, ss, sched.NewDefault())
		if err != nil {
			t.Fatal(err)
		}
		if cells[si], err = sim.Run(); err != nil {
			t.Fatal(err)
		}
	}
	return cells
}

// siteTotals is what the fleet must fold from a one-shot cell's result;
// zero for an empty site.
func siteTotals(c *cell.Result) SiteTotals {
	if c == nil {
		return SiteTotals{}
	}
	return SiteTotals{
		Users: len(c.Users), Slots: c.Slots,
		Energy: c.TotalEnergy(), TailEnergy: c.TotalTailEnergy(), Rebuffer: c.TotalRebuffer(),
		DegradedSlots: c.DegradedSlots, ClampEvents: c.ClampEvents,
	}
}

// TestFleetMatchesOneShotCells is the epoch loop's keystone: at every
// worker count and epoch size, each site's folded totals equal its cell
// run one shot, and the fleet totals equal their sum in site order —
// exactly (==, not a tolerance) — while the per-epoch series re-adds to
// the same totals. Epochs of one and two 16-slot blocks end on block
// boundaries, where the small sites' in-place windows park.
func TestFleetMatchesOneShotCells(t *testing.T) {
	dense := fleetSessions(t, 5000)
	for _, in := range []struct {
		name     string
		sessions []*workload.Session
		cfg      Config
	}{
		{"5 ragged sites of 8", fleetSessions(t, 40), fleetConfig(5)},
		{"2 sites of 2500, serial cells", dense, denseFleet(1)},
		{"2 sites of 2500, sharded cells", dense, denseFleet(4)},
		{"3 sites, an outage mid-run", fleetSessions(t, 30), outageFleet()},
	} {
		t.Run(in.name, func(t *testing.T) {
			var cells []*cell.Result // placement does not depend on workers or epochs
			for _, workers := range []int{1, 2, 0} {
				for _, epoch := range []int{1, 16, 17, 32, 64, 1 << 20} {
					cfg := in.cfg
					cfg.Workers, cfg.EpochSlots = workers, epoch
					res, err := Run(context.Background(), cfg, in.sessions, defaultFactory)
					if err != nil {
						t.Fatal(err)
					}
					if cells == nil {
						cells = oneShot(t, cfg, in.sessions, res.Placements)
					}
					t.Run(fmt.Sprintf("workers=%d,epoch=%d", workers, epoch), func(t *testing.T) {
						matchesOneShot(t, cfg, in.sessions, res, cells)
					})
				}
			}
		})
	}
}

func matchesOneShot(t *testing.T, cfg Config, sessions []*workload.Session, res *Result, cells []*cell.Result) {
	fl := res.Fleet
	if fl.Users != len(sessions) || len(res.Placements) != len(sessions) || fl.Sites != len(cfg.Sites) || fl.EmptySites != 0 {
		t.Fatalf("fleet shape: %+v", fl)
	}
	var sum SiteTotals
	for si, c := range cells {
		want := siteTotals(c)
		if fl.PerSite[si] != want {
			t.Fatalf("site %d: fleet %+v != one-shot %+v", si, fl.PerSite[si], want)
		}
		sum.Energy += want.Energy
		sum.TailEnergy += want.TailEnergy
		sum.Rebuffer += want.Rebuffer
		sum.DegradedSlots += want.DegradedSlots
		sum.ClampEvents += want.ClampEvents
		sum.Slots = max(sum.Slots, want.Slots)
	}
	if res.TotalEnergy() != sum.Energy || res.TotalRebuffer() != sum.Rebuffer || res.DegradedSlots() != sum.DegradedSlots {
		t.Fatalf("energy/rebuffer/degraded: fleet (%v,%v,%d) != one-shot (%v,%v,%d)",
			res.TotalEnergy(), res.TotalRebuffer(), res.DegradedSlots(), sum.Energy, sum.Rebuffer, sum.DegradedSlots)
	}
	if fl.TailEnergy != sum.TailEnergy || fl.Slots != sum.Slots || fl.ClampEvents != sum.ClampEvents {
		t.Fatalf("tail/slots/clamps: fleet (%v,%d,%d) != one-shot (%v,%d,%d)",
			fl.TailEnergy, fl.Slots, fl.ClampEvents, sum.TailEnergy, sum.Slots, sum.ClampEvents)
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
	// A cell that ran its horizon retires at the barrier after its last
	// slot; one that stopped short of it, after the slot whose tick found
	// every session finished (slot Slots itself).
	wantEpochs := 0
	for si, st := range fl.PerSite {
		last := st.Slots - 1
		if st.Slots < cfg.Sites[si].Cell.MaxSlots {
			last = st.Slots
		}
		wantEpochs = max(wantEpochs, last/cfg.EpochSlots+1)
	}
	wantSeries := (sum.Slots + cfg.EpochSlots - 1) / cfg.EpochSlots
	if fl.Epochs != wantEpochs || len(fl.PerEpoch) != wantSeries {
		t.Fatalf("epochs %d (series %d), want %d (series %d)", fl.Epochs, len(fl.PerEpoch), wantEpochs, wantSeries)
	}
}

// TestFleetPerEpochMatchesSlotFold pins the per-epoch series the sites
// fold as they tick: for each epoch size, Run's PerEpoch equals, bit for
// bit, the fold of every site's recorded per-slot series — slot n into
// epoch n / epoch per site, then the sites in index order — with one site
// running its full horizon and the others ending early.
func TestFleetPerEpochMatchesSlotFold(t *testing.T) {
	sessions := fleetSessions(t, 40)
	base := fleetConfig(5)
	base.Sites[0].Cell.RunFullHorizon = true
	for _, epoch := range []int{1, 7, 64} {
		cfg := base
		cfg.EpochSlots = epoch
		res, err := Run(context.Background(), cfg, sessions, defaultFactory)
		if err != nil {
			t.Fatal(err)
		}
		var want []EpochTotals
		early := 0
		for si, c := range oneShot(t, cfg, sessions, res.Placements) {
			if c.Slots < cfg.Sites[si].Cell.MaxSlots {
				early++
			}
			site := make([]EpochTotals, (len(c.PerSlot)+epoch-1)/epoch)
			for n, st := range c.PerSlot {
				site[n/epoch].Energy += st.Energy
				site[n/epoch].Rebuffer += st.Rebuffer
			}
			for e, v := range site {
				if e == len(want) {
					want = append(want, EpochTotals{})
				}
				want[e].Energy += v.Energy
				want[e].Rebuffer += v.Rebuffer
			}
		}
		if early == 0 || early == len(cfg.Sites) {
			t.Fatalf("epoch %d: %d of %d sites ended early, want some but not all", epoch, early, len(cfg.Sites))
		}
		got := res.Fleet.PerEpoch
		if len(got) != len(want) {
			t.Fatalf("epoch %d: %d per-epoch entries, the slot fold has %d", epoch, len(got), len(want))
		}
		for e := range want {
			if math.Float64bits(float64(got[e].Energy)) != math.Float64bits(float64(want[e].Energy)) ||
				math.Float64bits(float64(got[e].Rebuffer)) != math.Float64bits(float64(want[e].Rebuffer)) {
				t.Fatalf("epoch %d, entry %d: %+v, the slot fold gives %+v", epoch, e, got[e], want[e])
			}
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
	// stay identical.
	odd := run(3, 17)
	if odd.Energy != want.Energy || odd.Rebuffer != want.Rebuffer ||
		odd.TailEnergy != want.TailEnergy || odd.DegradedSlots != want.DegradedSlots {
		t.Fatal("totals differ across epoch sizes")
	}
}

// TestEmptySitesEveryAccessor: sites that receive no users count as
// EmptySites with zero PerSite entries, every Result accessor tolerates
// them, and the totals still equal the one-shot cells'.
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

	res, err := Run(context.Background(), cfg, sessions, defaultFactory)
	if err != nil {
		t.Fatal(err)
	}
	empties := 0
	for si, st := range res.Fleet.PerSite {
		if st == (SiteTotals{}) {
			empties++
		} else if si != 0 {
			t.Fatalf("site %d unexpectedly populated", si)
		}
	}
	if empties != len(cfg.Sites)-1 || res.Fleet.EmptySites != empties {
		t.Fatalf("%d empty sites (EmptySites %d), want %d", empties, res.Fleet.EmptySites, len(cfg.Sites)-1)
	}
	// Every accessor must walk the empty entries without panicking.
	_ = res.DegradedSlots()
	if len(res.Placements) != len(sessions) || res.Fleet.Users != len(sessions) {
		t.Fatalf("%d placements, fleet Users = %d", len(res.Placements), res.Fleet.Users)
	}
	var energy units.MJ
	var reb units.Seconds
	for _, c := range oneShot(t, cfg, sessions, res.Placements) {
		energy += siteTotals(c).Energy
		reb += siteTotals(c).Rebuffer
	}
	if res.TotalEnergy() != energy || res.TotalRebuffer() != reb {
		t.Fatal("fleet != one-shot cells with empty sites")
	}
}

// TestLeastLoadedTieBreakDeterministic: equal demand must always break
// to the lowest site index, so identical configs place identically —
// with uniform rates the policy degenerates to exact round-robin, in Run
// and in pickSite alone.
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
	place := func() []Placement {
		res, err := Run(context.Background(), cfg, sessions, defaultFactory)
		if err != nil {
			t.Fatal(err)
		}
		return res.Placements
	}
	want := place()
	for trial := 0; trial < 3; trial++ {
		if got := place(); !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d: placements differ", trial)
		}
	}
	for ui, pl := range want {
		if pl.Site != ui%sites {
			t.Fatalf("user %d placed at site %d; uniform-rate LeastLoaded must round-robin (lowest index wins ties)", ui, pl.Site)
		}
	}

	// pickSite itself, fed each site's demand as sessions attach, breaks
	// the ties the same way.
	demand := make([]units.KBps, sites)
	for ui, s := range sessions {
		si := pickSite(cfg, ui, s, demand)
		if si != ui%sites {
			t.Fatalf("pickSite: session %d placed at site %d, want %d", ui, si, ui%sites)
		}
		demand[si] += s.BaseRate
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
	if err := bad.validate(); err == nil {
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
