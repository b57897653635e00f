// Package jointstream's top-level benchmarks regenerate every figure of
// the paper's evaluation (one benchmark per figure) plus micro-benchmarks
// of the two scheduling algorithms.
//
// By default the figure benchmarks run the miniature CI workload so that
// `go test -bench=.` completes in seconds. Set JOINTSTREAM_PAPER_SCALE=1
// to benchmark the full §VI workload (N up to 40, 250–500 MB videos);
// cmd/jstream-bench prints the corresponding figure tables.
package jointstream

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"jointstream/internal/cell"
	"jointstream/internal/deploy"
	"jointstream/internal/experiments"
	"jointstream/internal/gateway"
	"jointstream/internal/radio"
	"jointstream/internal/rng"
	"jointstream/internal/rrc"
	"jointstream/internal/sched"
	"jointstream/internal/signal"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// benchOptions picks the experiment scale.
func benchOptions() experiments.Options {
	if os.Getenv("JOINTSTREAM_PAPER_SCALE") != "" {
		return experiments.PaperOptions()
	}
	return experiments.QuickOptions()
}

// benchFigure runs one figure end to end per iteration and sanity-checks
// the output so a silently empty figure fails the benchmark.
func benchFigure(b *testing.B, f func(*experiments.Runner) (*experiments.Figure, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := experiments.NewRunner(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		fig, err := f(r)
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Series) == 0 {
			b.Fatalf("%s: empty figure", fig.ID)
		}
		for _, s := range fig.Series {
			if len(s.X) == 0 || len(s.X) != len(s.Y) {
				b.Fatalf("%s/%s: malformed series", fig.ID, s.Label)
			}
		}
	}
}

func BenchmarkFig02Fairness(b *testing.B) {
	benchFigure(b, (*experiments.Runner).Fig2)
}

func BenchmarkFig03RebufferCDF(b *testing.B) {
	benchFigure(b, (*experiments.Runner).Fig3)
}

func BenchmarkFig04aAlphaUsers(b *testing.B) {
	benchFigure(b, (*experiments.Runner).Fig4a)
}

func BenchmarkFig04bAlphaData(b *testing.B) {
	benchFigure(b, (*experiments.Runner).Fig4b)
}

func BenchmarkFig05aRebufferCompare(b *testing.B) {
	benchFigure(b, (*experiments.Runner).Fig5a)
}

func BenchmarkFig05bEnergyCompare(b *testing.B) {
	benchFigure(b, (*experiments.Runner).Fig5b)
}

func BenchmarkFig06FairnessEMA(b *testing.B) {
	benchFigure(b, (*experiments.Runner).Fig6)
}

func BenchmarkFig07PowerCDF(b *testing.B) {
	benchFigure(b, (*experiments.Runner).Fig7)
}

func BenchmarkFig08aBetaUsers(b *testing.B) {
	benchFigure(b, (*experiments.Runner).Fig8a)
}

func BenchmarkFig08bBetaData(b *testing.B) {
	benchFigure(b, (*experiments.Runner).Fig8b)
}

func BenchmarkFig09aEnergyCompare(b *testing.B) {
	benchFigure(b, (*experiments.Runner).Fig9a)
}

func BenchmarkFig09bRebufferCompare(b *testing.B) {
	benchFigure(b, (*experiments.Runner).Fig9b)
}

func BenchmarkFig10TradeoffPanel(b *testing.B) {
	benchFigure(b, (*experiments.Runner).Fig10)
}

// BenchmarkSweepPaperScale is the end-to-end number the perf gate
// tracks in ms/sweep: one full parallel figure sweep through the
// multi-arm batched Runner — workload cache, compiled link tables,
// lockstep RunArms groups and all. It honors JOINTSTREAM_PAPER_SCALE
// like the figure benchmarks (CI runs the quick scale; the recorded
// results/BENCH_sweep.json numbers come from the paper scale via
// jstream-bench -sweep). A sanity check on the figure count keeps a
// silently truncated sweep from benchmarking as a speedup.
func BenchmarkSweepPaperScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.NewRunner(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		figs, err := r.AllParallel(context.Background(), 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(figs) != 13 {
			b.Fatalf("got %d figures, want 13", len(figs))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "ms/sweep")
}

// BenchmarkClaims regenerates the headline-claims table.
func BenchmarkClaims(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.NewRunner(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		claims, err := r.Claims()
		if err != nil {
			b.Fatal(err)
		}
		if len(claims) != 6 {
			b.Fatalf("got %d claims", len(claims))
		}
	}
}

// --- algorithm micro-benchmarks -------------------------------------

// benchSlot builds a representative 40-user slot.
func benchSlot(users, capacityUnits int) (*sched.Slot, []int) {
	src := rng.New(9)
	c := &sched.Columns{
		Active:      make([]bool, users),
		Sig:         make([]units.DBm, users),
		LinkRate:    make([]units.KBps, users),
		EnergyPerKB: make([]units.MJ, users),
		Rate:        make([]units.KBps, users),
		BufferSec:   make([]units.Seconds, users),
		RemainingKB: make([]units.KB, users),
		TailGap:     make([]units.Seconds, users),
		NeverActive: make([]bool, users),
		MaxUnits:    make([]int32, users),
	}
	for i := 0; i < users; i++ {
		sig := units.DBm(src.Uniform(-110, -50))
		link := units.KBps(65.8*float64(sig) + 7567)
		c.Active[i] = true
		c.Sig[i] = sig
		c.LinkRate[i] = link
		c.EnergyPerKB[i] = units.MJ(-0.167 + 1560/float64(link))
		c.Rate[i] = units.KBps(src.Uniform(300, 600))
		c.RemainingKB[i] = 1e9
		c.MaxUnits[i] = int32(float64(link) / 100)
	}
	slot := &sched.Slot{Tau: 1, Unit: 100, CapacityUnits: capacityUnits, Cols: c}
	return slot, make([]int, users)
}

func BenchmarkRTMAAllocate40Users(b *testing.B) {
	rt, err := sched.NewRTMA(sched.RTMAConfig{
		Budget: 950, Radio: cell.PaperConfig().Radio, RRC: rrc.Paper3G(),
	})
	if err != nil {
		b.Fatal(err)
	}
	slot, alloc := benchSlot(40, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range alloc {
			alloc[j] = 0
		}
		rt.Allocate(slot, alloc)
	}
}

// BenchmarkEMAAllocate40Users measures the monotone-deque DP at the
// paper's capacity (⌊τS/δ⌋ = 205 units); BenchmarkEMAAllocateRef40Users
// is the paper-literal quadratic DP on the same slot, so the speedup is
// visible from one `-bench 'EMAAllocate'` run.
func BenchmarkEMAAllocate40Users(b *testing.B) {
	em, err := sched.NewEMA(sched.EMAConfig{V: 0.2, RRC: rrc.Paper3G()})
	if err != nil {
		b.Fatal(err)
	}
	slot, alloc := benchSlot(40, 205)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range alloc {
			alloc[j] = 0
		}
		em.Allocate(slot, alloc)
	}
}

func BenchmarkEMAAllocateRef40Users(b *testing.B) {
	em, err := sched.NewEMA(sched.EMAConfig{V: 0.2, RRC: rrc.Paper3G()})
	if err != nil {
		b.Fatal(err)
	}
	slot, alloc := benchSlot(40, 205)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range alloc {
			alloc[j] = 0
		}
		em.AllocateRef(slot, alloc)
	}
}

// BenchmarkSimulatorSlotThroughput measures raw simulator slots/second at
// N=20 with the Default scheduler.
func BenchmarkSimulatorSlotThroughput(b *testing.B) {
	cfg := cell.PaperConfig()
	cfg.MaxSlots = b.N
	cfg.RunFullHorizon = true
	wl, err := workload.Generate(workload.PaperDefaults(20), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	sim, err := cell.New(cfg, wl, sched.NewDefault())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if _, err := sim.Run(); err != nil {
		b.Fatal(err)
	}
}

// --- large-N tick benchmarks (sharded engine) ------------------------

// benchTickSessions caches workloads per user count so sub-benchmarks
// and reruns don't regenerate 100k sine traces; sessions are immutable
// demand descriptors, so sharing them across simulators is safe.
var benchTickSessions = map[int][]*workload.Session{}

// benchTickLinks caches compiled link tables per (users, slots) tier so
// the timed region is the pure tick path — the production sweep harness
// compiles one table per scenario and reuses it across scheduler runs,
// and the benchmark mirrors that shape.
var benchTickLinks = map[[2]int]*cell.LinkTable{}

func tickSessions(b *testing.B, users int) []*workload.Session {
	b.Helper()
	if wl, ok := benchTickSessions[users]; ok {
		return wl
	}
	wl, err := workload.Generate(workload.PaperDefaults(users), rng.New(42))
	if err != nil {
		b.Fatal(err)
	}
	benchTickSessions[users] = wl
	return wl
}

func tickLink(b *testing.B, cfg cell.Config, users int) *cell.LinkTable {
	b.Helper()
	key := [2]int{users, cfg.MaxSlots}
	if lt, ok := benchTickLinks[key]; ok {
		return lt
	}
	lt, err := cell.CompileLink(cfg, tickSessions(b, users))
	if err != nil {
		b.Fatal(err)
	}
	benchTickLinks[key] = lt
	return lt
}

// benchTick measures the tick path at cell scale N: paper-sized videos
// never complete within the horizon, so every slot pays the full
// prepare/schedule/commit cost over N live users. Workers=1 is the
// serial engine; Workers=0 lets the engine use every core. The extra
// "ns/slot" metric divides out the horizon so the N tiers compare
// directly despite their different MaxSlots.
func benchTick(b *testing.B, users, slots, workers int) {
	wl := tickSessions(b, users)
	cfg := cell.PaperConfig()
	cfg.MaxSlots = slots
	cfg.RunFullHorizon = true
	cfg.Workers = workers
	cfg.Link = tickLink(b, cfg, users)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := cell.New(cfg, wl, sched.NewDefault())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(slots), "ns/slot")
}

func BenchmarkTickN1k(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchTick(b, 1_000, 256, 1) })
	b.Run("sharded", func(b *testing.B) { benchTick(b, 1_000, 256, 0) })
}

func BenchmarkTickN10k(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchTick(b, 10_000, 64, 1) })
	b.Run("sharded", func(b *testing.B) { benchTick(b, 10_000, 64, 0) })
}

func BenchmarkTickN100k(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchTick(b, 100_000, 16, 1) })
	b.Run("sharded", func(b *testing.B) { benchTick(b, 100_000, 16, 0) })
}

// benchAllocLargeN measures one scheduler's Allocate at large N with the
// active list the engine would hand it (everyone active).
func benchAllocLargeN(b *testing.B, s sched.Scheduler, n int) {
	b.Helper()
	slot, alloc := benchSlot(n, 5*n)
	act := make([]int, n)
	for i := range act {
		act[i] = i
	}
	slot.ActiveList = act
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range alloc {
			alloc[j] = 0
		}
		s.Allocate(slot, alloc)
	}
}

func BenchmarkDefaultAllocate10kUsers(b *testing.B) {
	benchAllocLargeN(b, sched.NewDefault(), 10_000)
}

// BenchmarkRTMAAllocate10kUsers exercises the precomputed-key sort and
// the compacting water-filling rounds at two hundred fifty times the
// paper's N.
func BenchmarkRTMAAllocate10kUsers(b *testing.B) {
	rt, err := sched.NewRTMA(sched.RTMAConfig{
		Budget: 950, Radio: cell.PaperConfig().Radio, RRC: rrc.Paper3G(),
	})
	if err != nil {
		b.Fatal(err)
	}
	benchAllocLargeN(b, rt, 10_000)
}

// --- fleet benchmarks (streaming multi-cell runner) ------------------

// benchFleet runs the epoch-clocked streaming deployment: tiled link
// tables, stateless signal traces, per-cell serial engines under the
// site fan-out. The "ms/epoch" metric is what the perf gate tracks —
// wall time per lockstep barrier across the whole fleet.
func benchFleet(b *testing.B, users, cells, slots, tile int) {
	cfg := workload.PaperDefaults(users)
	cfg.StatelessSignal = true
	wl, err := workload.Generate(cfg, rng.New(42))
	if err != nil {
		b.Fatal(err)
	}
	dep := deploy.Config{Policy: deploy.RoundRobin, Stream: true, EpochSlots: 64}
	for i := 0; i < cells; i++ {
		c := cell.PaperConfig()
		c.MaxSlots = slots
		c.RunFullHorizon = true
		c.Workers = 1
		c.LinkTileSlots = tile
		dep.Sites = append(dep.Sites, deploy.Site{Name: "cell", Cell: c})
	}
	epochs := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := deploy.Run(context.Background(), dep, wl, func() (sched.Scheduler, error) {
			return sched.NewDefault(), nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Fleet == nil || res.Fleet.Users != users {
			b.Fatalf("fleet run folded %d users, want %d", res.Fleet.Users, users)
		}
		epochs += res.Fleet.Epochs
	}
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(epochs), "ms/epoch")
}

// BenchmarkFleet measures the streaming fleet runner. The gated tier is
// small enough for CI; the big tiers reproduce results/BENCH_fleet.json
// territory and only run when JOINTSTREAM_FLEET_SCALE is set.
func BenchmarkFleet(b *testing.B) {
	b.Run("u50000_c16", func(b *testing.B) { benchFleet(b, 50_000, 16, 128, 32) })
	if os.Getenv("JOINTSTREAM_FLEET_SCALE") == "" {
		return
	}
	b.Run("u200000_c64", func(b *testing.B) { benchFleet(b, 200_000, 64, 256, 64) })
	b.Run("u1000000_c256", func(b *testing.B) { benchFleet(b, 1_000_000, 256, 512, 64) })
}

// --- link-window refill (the fill kernel every provider calls) -------

// benchLinkRefill times the tiled link table's window refill on its own:
// a table of `users` prewarmed paper sessions and a `tile`-slot window is
// bounced between the horizon's two windows, so every call below refills
// users × tile rows. ns/row (a row is one user-slot) is what the perf
// gate tracks; the all-cores tier beating the one-worker tier is what
// contiguous user-range shards bought — with one user per shard the
// workers shared every cache line they wrote and it lost.
func benchLinkRefill(b *testing.B, users, tile, workers int) {
	const refillsPerIter = 4 // so -benchtime=1x still averages a few
	wl, err := workload.Generate(workload.PaperDefaults(users), rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	cfg := cell.PaperConfig()
	cfg.MaxSlots = 2 * tile
	cfg.Workers = workers
	lt, err := cell.CompileLinkTiled(cfg, wl, tile)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < refillsPerIter; k++ {
			// Window 0 is resident after compilation; alternate from 1.
			if got := lt.SlotEnergyPerKB(((k + 1) % 2) * tile); len(got) != users {
				b.Fatalf("slot column has %d rows, want %d", len(got), users)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*refillsPerIter*users*tile), "ns/row")
}

func BenchmarkLinkRefill(b *testing.B) {
	b.Run("n100000_t64_w1", func(b *testing.B) { benchLinkRefill(b, 100_000, 64, 1) })
	b.Run("n100000_t64_wmax", func(b *testing.B) { benchLinkRefill(b, 100_000, 64, 0) })
}

// --- churn benchmarks (open-system serving path) ---------------------

// benchChurn drives an unbounded open-system engine at steady per-slot
// churn — every slot departs the oldest session and admits a fresh one —
// across many tile-window rollovers. What is timed is the whole slot cycle,
// depart + admit + advance: timing AdvanceTo alone misses whatever the
// table operations pay for the pipeline (at e257651 the first of them after
// a rollover sat out the background fill) and books the admission rows,
// which AdvanceTo now fills in one batch, as a slower tick. Per-slot
// timings are split into rollover slots and steady slots. The engine fuses
// commit(n) with prepare(n+1), so the window starting at slot k·tile is
// attached — the background fill finished and swapped in, or filled on the
// spot — while slot k·tile−1 ticks: the rollover slots are the *last* slot
// of each window, (n+1) % tile == 0, as in benchmark/README "Rollover
// slots". rollover-x is the ratio of the two medians (the gate's
// acceptance bound is 2×); ns/slot is what the benchstat perf gate tracks.
func benchChurn(b *testing.B, n, tile, workers int) {
	const tilesPerIter = 4
	slotsPerIter := tilesPerIter * tile
	cfg := cell.PaperConfig()
	cfg.RunFullHorizon = true
	cfg.Workers = workers
	src := rng.New(7)
	mk := func(id int) *workload.Session {
		return &workload.Session{
			ID:       id,
			Size:     1 << 30, // never completes; churn is depart-driven
			BaseRate: units.KBps(src.Uniform(300, 600)),
			Signal:   signal.Constant(units.DBm(src.Uniform(-95, -55)), signal.DefaultBounds),
		}
	}
	initial := make([]*workload.Session, n)
	for i := range initial {
		initial[i] = mk(i)
	}
	o, err := cell.NewOpen(cell.OpenConfig{
		Cell: cfg, Unbounded: true, MaxSessions: n,
		TileSlots: tile, WindowSlots: 2 * tile, Windows: 2,
	}, initial, sched.NewDefault())
	if err != nil {
		b.Fatal(err)
	}
	defer o.Stop()
	if err := o.Start(context.Background()); err != nil {
		b.Fatal(err)
	}
	type live struct {
		idx int
		ser uint64
	}
	fifo := make([]live, 0, n+1)
	for i := 0; i < n; i++ {
		ser, ok := o.Serial(i)
		if !ok {
			b.Fatalf("no serial for initial session %d", i)
		}
		fifo = append(fifo, live{i, ser})
	}
	tmpl := mk(0)
	slot := 0
	var roll, steady []float64
	advance := func(record bool) {
		for k := 0; k < slotsPerIter; k++ {
			old := fifo[0]
			fifo = fifo[:copy(fifo, fifo[1:])]
			start := time.Now()
			if ok, err := o.DepartSerial(old.idx, old.ser); err != nil || !ok {
				b.Fatalf("depart idx=%d ser=%d: ok=%v err=%v", old.idx, old.ser, ok, err)
			}
			idx, err := o.Admit(tmpl)
			if err != nil {
				b.Fatal(err)
			}
			ser, _ := o.Serial(idx)
			fifo = append(fifo, live{idx, ser})
			if _, err := o.AdvanceTo(slot + 1); err != nil {
				b.Fatal(err)
			}
			d := float64(time.Since(start).Nanoseconds())
			if record {
				if (slot+1)%tile == 0 {
					roll = append(roll, d)
				} else {
					steady = append(steady, d)
				}
			}
			slot++
		}
	}
	advance(false) // warm the tile pipeline and the session pool
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		advance(true)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*slotsPerIter), "ns/slot")
	b.ReportMetric(medianOf(roll)/medianOf(steady), "rollover-x")
}

// medianOf returns the median of xs without mutating it.
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// BenchmarkChurn is the open-system counterpart of BenchmarkTickN: the
// serial tier sits under the engine's small-N serial cutoff, the sharded
// tier exercises the parallel tile fill and shard barriers under churn.
func BenchmarkChurn(b *testing.B) {
	b.Run("n2000_t32_serial", func(b *testing.B) { benchChurn(b, 2_000, 32, 1) })
	b.Run("n10000_t32_sharded", func(b *testing.B) { benchChurn(b, 10_000, 32, 0) })
}

// benchGatewayStep times gateway.Step with k sessions in service on
// LocalEndpoint + PatternSource (benchmark/'s gateway_churn shape: τ = 5 ms,
// 1 KB units, RRC energy, Default, load 0.9, videos of 75–225 KB), every
// completion replaced by a fresh Attach. The clock starts once the queues
// are up (64 slots) and `warm` sessions have been attached in all, so two
// tiers at different `warm` show what a Step costs per session in service
// as the sessions ever attached grow. ns/user-slot is Step time alone; allocs/slot covers Step and
// Attach, the sessions' two ends being built off the clock.
func benchGatewayStep(b *testing.B, k, warm int) {
	const slotsPerIter = 64
	g, err := gateway.New(gateway.Config{
		Tau: 0.005, Unit: 1, Capacity: units.KBps(float64(k) * 450 / 0.9),
		Radio: radio.Paper3G(), RRC: rrc.Paper3G(), QueueCap: 64,
	}, sched.NewDefault())
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	type session struct {
		ep   *gateway.LocalEndpoint
		src  *gateway.PatternSource
		want int64
	}
	src := rng.New(7)
	var reserve []session
	stock := func(n int) {
		for len(reserve) < n {
			sine := workload.PaperDefaults(1).Signal
			sine.Phase = src.Uniform(0, 2*math.Pi)
			tr, err := signal.NewStatelessSine(sine, src.Uint64())
			if err != nil {
				b.Fatal(err)
			}
			size := units.KB(math.Round(src.Uniform(75, 225)))
			ep, err := gateway.NewLocalEndpoint(tr, units.KBps(src.Uniform(300, 600)), false)
			if err != nil {
				b.Fatal(err)
			}
			ps, err := gateway.NewPatternSource(size)
			if err != nil {
				b.Fatal(err)
			}
			reserve = append(reserve, session{ep, ps, int64(float64(size) * 1000)})
		}
	}
	attached := 0
	attach := func() session {
		s := reserve[len(reserve)-1]
		reserve = reserve[:len(reserve)-1]
		if _, err := g.Attach(s.ep, s.src); err != nil {
			b.Fatal(err)
		}
		attached++
		return s
	}
	stock(k)
	live := make([]session, k)
	for i := range live {
		live[i] = attach()
	}
	var stepNS time.Duration
	slot := func() {
		start := time.Now()
		if _, err := g.Step(); err != nil {
			b.Fatal(err)
		}
		stepNS += time.Since(start)
		for i := range live {
			live[i].ep.Advance()
			if live[i].ep.ReceivedBytes() >= live[i].want {
				live[i] = attach()
			}
		}
	}
	for n := 0; n < slotsPerIter || attached < warm; n++ {
		stock(k)
		slot()
	}
	var before, after runtime.MemStats
	var mallocs uint64
	stepNS = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		stock(slotsPerIter * k / 8) // a session lasts some 60 slots
		runtime.ReadMemStats(&before)
		b.StartTimer()
		for n := 0; n < slotsPerIter; n++ {
			slot()
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
	}
	slots := float64(b.N * slotsPerIter)
	b.ReportMetric(float64(stepNS.Nanoseconds())/slots/float64(k), "ns/user-slot")
	b.ReportMetric(float64(mallocs)/slots, "allocs/slot")
}

// BenchmarkGatewayStep is the serving path's own slot loop at K = 500 in
// service, after K and after 10·K sessions attached in all: the second
// row over the first is the growth of a Step with uptime (1.4–1.9 when
// Step scanned every session ever attached).
func BenchmarkGatewayStep(b *testing.B) {
	const k = 500
	b.Run("k500_sessions1x", func(b *testing.B) { benchGatewayStep(b, k, k) })
	b.Run("k500_sessions10x", func(b *testing.B) { benchGatewayStep(b, k, 10*k) })
}

// --- ablation benches (DESIGN.md, Design choices) --------------------

// BenchmarkAblationUnitSize sweeps the data-unit size δ, the main knob of
// the EMA DP's state space.
func BenchmarkAblationUnitSize(b *testing.B) {
	for _, unit := range []units.KB{50, 100, 200, 400} {
		b.Run(unit.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := cell.PaperConfig()
				cfg.Unit = unit
				cfg.MaxSlots = 400
				cfg.RunFullHorizon = true
				wl, err := workload.Generate(workload.PaperDefaults(10), rng.New(3))
				if err != nil {
					b.Fatal(err)
				}
				for _, s := range wl {
					s.Size = 50 * units.Megabyte
				}
				em, err := sched.NewEMA(sched.EMAConfig{V: 0.2, RRC: cfg.RRC})
				if err != nil {
					b.Fatal(err)
				}
				sim, err := cell.New(cfg, wl, em)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sim.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationVSweep exercises the Lyapunov V trade-off directly.
func BenchmarkAblationVSweep(b *testing.B) {
	for _, v := range []float64{0.01, 0.1, 1} {
		b.Run(fmt.Sprintf("V=%g", v), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := cell.PaperConfig()
				cfg.MaxSlots = 400
				wl, err := workload.Generate(workload.PaperDefaults(10), rng.New(3))
				if err != nil {
					b.Fatal(err)
				}
				for _, s := range wl {
					s.Size = 50 * units.Megabyte
				}
				em, err := sched.NewEMA(sched.EMAConfig{V: v, RRC: cfg.RRC})
				if err != nil {
					b.Fatal(err)
				}
				sim, err := cell.New(cfg, wl, em)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sim.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
