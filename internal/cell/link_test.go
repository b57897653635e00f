package cell

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"

	"jointstream/internal/radio"
	"jointstream/internal/rng"
	"jointstream/internal/sched"
	"jointstream/internal/signal"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// linkRowBytes is the per-user-slot footprint across the table's parallel
// column arrays — two 8-byte columns (sig, rate) — which the row-cap
// sizing math rests on. (A table whose sessions all have a constant
// required rate keeps one rate row per block instead of one per slot and
// is 8 bytes per row smaller; MemoryBytes reports what is resident.)
const linkRowBytes = 2 * 8

// linkTestTraces builds one trace per stochastic generator so the
// flattening property is checked against qualitatively different
// channel dynamics, not just the paper's sine.
func linkTestTraces(t *testing.T, n int) map[string][]signal.Trace {
	t.Helper()
	src := rng.New(7)
	mk := func(name string, build func(i int) (signal.Trace, error)) []signal.Trace {
		out := make([]signal.Trace, n)
		for i := range out {
			tr, err := build(i)
			if err != nil {
				t.Fatalf("%s trace %d: %v", name, i, err)
			}
			out[i] = tr
		}
		return out
	}
	return map[string][]signal.Trace{
		"sine+wgn": mk("sine", func(i int) (signal.Trace, error) {
			return signal.NewStatelessSine(signal.SineConfig{
				Bounds:      signal.DefaultBounds,
				PeriodSlots: 120,
				Phase:       float64(i),
				NoiseStdDBm: 10,
			}, src.Uint64())
		}),
		"randomwalk": mk("walk", func(i int) (signal.Trace, error) {
			return signal.NewRandomWalk(signal.RandomWalkConfig{
				Bounds:  signal.DefaultBounds,
				Start:   units.DBm(-80 - i),
				StepStd: 2.5,
			}, src)
		}),
		"gilbert-elliott": mk("ge", func(i int) (signal.Trace, error) {
			return signal.NewGilbertElliott(signal.GilbertElliottConfig{
				Bounds: signal.DefaultBounds,
				Good:   -60, Bad: -100,
				PGoodToBad: 0.05, PBadToGood: 0.1,
				JitterStd: 3,
			}, src)
		}),
	}
}

// TestLinkTableMatchesAnalytic is the flattening property: for every
// generator, every user, and every slot, the packed row — signal and
// required rate — equals what the uncompiled tick path reads, and the
// throughput, per-KB energy and floored Eq. (1) link limit radio.Link
// derives from it equal what that path computes from the interfaces.
// Equality is ==, not approximate.
func TestLinkTableMatchesAnalytic(t *testing.T) {
	const users, slots = 5, 400
	cfg := PaperConfig()
	cfg.MaxSlots = slots
	for name, traces := range linkTestTraces(t, users) {
		t.Run(name, func(t *testing.T) {
			sessions := make([]*workload.Session, users)
			for i := range sessions {
				sessions[i] = &workload.Session{
					ID: i, Size: 5000, BaseRate: units.KBps(300 + 50*i), Signal: traces[i],
				}
			}
			lt, err := CompileLink(cfg, sessions)
			if err != nil {
				t.Fatal(err)
			}
			if lt.Users() != users || lt.Slots() != slots {
				t.Fatalf("table shape %dx%d, want %dx%d", lt.Users(), lt.Slots(), users, slots)
			}
			all := []int{0, 1, 2, 3, 4}
			for n := 0; n < slots; n++ {
				checkRowsAnalytic(t, tableView(lt), cfg, sessions, n, all)
			}
		})
	}
}

// TestEveryRunReadsALinkWindow holds the one prepare path: every way of
// building an engine — New over a shared Link, over its own table, past
// the table's row cap, under LinkTileSlots, and NewOpen bounded, unbounded
// and with the default block — ticks on a link window, and its Result
// equals RunReference's analytic evaluation bit for bit (one shard). An
// open engine without a session cap is refused.
func TestEveryRunReadsALinkWindow(t *testing.T) {
	gen := func(users int) []*workload.Session {
		wc := workload.PaperDefaults(users)
		wc.SizeMin, wc.SizeMax = 60_000, 120_000 // playback outlasts a 256-slot block
		wc.MeanInterarrival = 0.5
		wc.StatelessSignal = true
		wl, err := workload.Generate(wc, rng.New(29))
		if err != nil {
			t.Fatal(err)
		}
		return wl
	}
	base := PaperConfig()
	base.MaxSlots = 600
	// reference is RunReference's Result for cfg over wl.
	reference := func(cfg Config, wl []*workload.Session) *Result {
		sim := mustNewWith(t, cfg, wl, sched.NewDefault())
		res, err := sim.RunReference()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// closed runs cfg through New and reports its window's block span and
	// whether a table backs it.
	closed := func(cfg Config, wl []*workload.Session) (*Result, int, bool) {
		sim := mustNewWith(t, cfg, wl, sched.NewDefault())
		if sim.win == nil {
			t.Fatal("no link window")
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, sim.win.span, sim.win.table != nil
	}
	// open runs oc through NewOpen to slot upto, admitting nothing mid-run
	// (over a copy of wl: an ended session's entry is cleared).
	open := func(oc OpenConfig, wl []*workload.Session, upto int) (*Result, int, bool) {
		o, err := NewOpen(oc, slices.Clone(wl), sched.NewDefault())
		if err != nil {
			t.Fatal(err)
		}
		if o.eng.win == nil {
			t.Fatal("no link window")
		}
		if err := o.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		if _, err := o.AdvanceTo(upto); err != nil {
			t.Fatal(err)
		}
		return o.Finish(), o.eng.win.span, o.eng.win.table != nil
	}

	wl := gen(40)
	shared, err := CompileLink(base, wl)
	if err != nil {
		t.Fatal(err)
	}
	few := gen(8)
	overCap := base
	overCap.MaxSlots = DefaultLinkTableMaxRows/len(few) + 1 // one row-slot past the cap
	overCap.Record = RecordTotals
	unbounded := base
	unbounded.RunFullHorizon = true
	unbounded.Record = RecordTotals
	cases := []struct {
		name  string
		cfg   Config // the reference arm's
		wl    []*workload.Session
		run   func() (*Result, int, bool)
		span  int
		table bool
	}{
		{"shared Link", base, wl, func() (*Result, int, bool) {
			cfg := base
			cfg.Link = shared
			return closed(cfg, wl)
		}, tableBlockSlots, true},
		{"auto table", base, wl, func() (*Result, int, bool) { return closed(base, wl) }, tableBlockSlots, true},
		{"over the row cap", overCap, few, func() (*Result, int, bool) { return closed(overCap, few) }, tableBlockSlots, false},
		{"LinkTileSlots", base, wl, func() (*Result, int, bool) {
			cfg := base
			cfg.LinkTileSlots = 33
			return closed(cfg, wl)
		}, 17, false},
		{"open bounded", base, wl, func() (*Result, int, bool) {
			return open(OpenConfig{Cell: base, MaxSessions: len(wl), TileSlots: 8}, wl, base.MaxSlots)
		}, 8, false},
		{"open unbounded", unbounded, wl, func() (*Result, int, bool) {
			return open(OpenConfig{Cell: unbounded, Unbounded: true, MaxSessions: len(wl), TileSlots: 8}, wl, base.MaxSlots)
		}, 8, false},
		{"open TileSlots 0", base, wl, func() (*Result, int, bool) {
			return open(OpenConfig{Cell: base, MaxSessions: len(wl)}, wl, base.MaxSlots)
		}, tableBlockSlots, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, span, table := c.run()
			if span != c.span || table != c.table {
				t.Errorf("window: %d-slot blocks, table %v; want %d, %v", span, table, c.span, c.table)
			}
			if want := reference(c.cfg, c.wl); !reflect.DeepEqual(got, want) {
				t.Error("Result differs from RunReference's")
			}
		})
	}

	if _, err := NewOpen(OpenConfig{Cell: base}, wl, sched.NewDefault()); err == nil {
		t.Error("NewOpen accepted MaxSessions 0")
	}
}

// TestRunBitwiseEqualWithLinkTable runs the full engine over its own
// table and over a table-less sliding window and requires both Results to
// equal RunReference's — flattening is plumbing, not physics.
func TestRunBitwiseEqualWithLinkTable(t *testing.T) {
	wl, err := workload.Generate(workload.PaperDefaults(8), rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	base := PaperConfig()
	base.MaxSlots = 1500
	runWith := func(tileSlots int, tabled bool) *Result {
		cfg := base
		cfg.LinkTileSlots = tileSlots
		sim := mustNewWith(t, cfg, wl, sched.NewDefault())
		if sim.win == nil || (sim.win.table != nil) != tabled {
			t.Fatalf("LinkTileSlots=%d: window %v, want table %v", tileSlots, sim.win != nil, tabled)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	with := runWith(0, true)      // auto-compiled table
	without := runWith(64, false) // sliding window
	ref, err := mustNewWith(t, base, wl, sched.NewDefault()).RunReference()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(with, ref) {
		t.Error("Result differs between link-table and reference runs")
	}
	if !reflect.DeepEqual(without, ref) {
		t.Error("Result differs between sliding-window and reference runs")
	}
}

// TestAutoLinkTableCap checks the size gate: a run over
// DefaultLinkTableMaxRows slides a window of tableBlockSlots-slot blocks
// instead of allocating a huge table, and a run at the cap compiles one.
func TestAutoLinkTableCap(t *testing.T) {
	wc := workload.PaperDefaults(4)
	wc.StatelessSignal = true
	wl, err := workload.Generate(wc, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := PaperConfig()
	cfg.Record = RecordTotals
	cfg.MaxSlots = DefaultLinkTableMaxRows/len(wl) + 1 // one row-slot past the cap
	sim := mustNewWith(t, cfg, wl, sched.NewDefault())
	if sim.win == nil || sim.win.table != nil || sim.win.span != tableBlockSlots {
		t.Error("over-cap run did not slide a table-less window of tableBlockSlots-slot blocks")
	}
	cfg.MaxSlots = DefaultLinkTableMaxRows / len(wl)
	sim = mustNewWith(t, cfg, wl, sched.NewDefault())
	if sim.win == nil || sim.win.table == nil {
		t.Error("at-cap run skipped the table")
	}
}

// TestConfigLinkCompatibility rejects caller-supplied tables that do not
// match the run's sessions, and accepts any that do.
func TestConfigLinkCompatibility(t *testing.T) {
	wl, err := workload.Generate(workload.PaperDefaults(4), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := PaperConfig()
	cfg.MaxSlots = 100
	lt, err := CompileLink(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}

	good := cfg
	good.Link = lt
	if _, err := New(good, wl, sched.NewDefault()); err != nil {
		t.Fatalf("matching table rejected: %v", err)
	}

	short := cfg
	short.Link = lt
	short.MaxSlots = 101
	if _, err := New(short, wl, sched.NewDefault()); err == nil {
		t.Error("table with too few slots accepted")
	}

	fewer, err := workload.Generate(workload.PaperDefaults(3), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	usersCfg := cfg
	usersCfg.Link = lt
	if _, err := New(usersCfg, fewer, sched.NewDefault()); err == nil {
		t.Error("table with wrong user count accepted")
	}

	// A table holds signals and rates only: under another slot grid or
	// radio model the run derives its own physics from it, exactly as from
	// a table compiled under its own configuration.
	for name, mod := range map[string]func(*Config){
		"grid":  func(c *Config) { c.Tau *= 2 },
		"model": func(c *Config) { c.Radio = radio.LTE() },
	} {
		own := cfg
		mod(&own)
		shared := own
		shared.Link = lt
		want, err := mustNewWith(t, own, wl, sched.NewDefault()).Run()
		if err != nil {
			t.Fatal(err)
		}
		got, err := mustNewWith(t, shared, wl, sched.NewDefault()).Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: run over a table compiled under another configuration differs from its own", name)
		}
	}

	// Same shape, grid, and model, different workload: the sampled rows'
	// signal/rate must disagree with the run's sessions.
	other, err := workload.Generate(workload.PaperDefaults(4), rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	wlCfg := cfg
	wlCfg.Link = lt
	if _, err := New(wlCfg, other, sched.NewDefault()); err == nil {
		t.Error("table compiled from a different workload accepted")
	}
}

// tableRows copies every filled block of a table.
func tableRows(lt *LinkTable) []linkCols {
	var out []linkCols
	for k := range lt.blocks {
		if b := lt.blocks[k].Load(); b != nil {
			out = append(out, linkCols{
				sig: slices.Clone(b.sig), rate: slices.Clone(b.rate), stride: b.stride, rateStride: b.rateStride,
			})
		}
	}
	return out
}

// TestRunReferenceKeepsLinkTable pins the reference arm's independence
// from the compiled table: it bypasses the table without mutating the
// Simulator (s.win survives the run, so nothing observing the Simulator
// concurrently can see it flip), and it prepares into static columns it
// owns — two arms run concurrently against one shared Config.Link (under
// -race in CI), fill none of its blocks and leave every filled row
// bit-unchanged, so an engine arm attached afterwards, which fills the
// rest, still reproduces them exactly.
func TestRunReferenceKeepsLinkTable(t *testing.T) {
	wl, err := workload.Generate(workload.PaperDefaults(4), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := PaperConfig()
	cfg.MaxSlots = 2*tableBlockSlots + 50
	lt, err := CompileLink(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Link = lt
	before := tableRows(lt)

	var wg sync.WaitGroup
	results := make([]*Result, 2)
	errs := make([]error, 2)
	for k := range results {
		sim, err := New(cfg, wl, sched.NewDefault())
		if err != nil {
			t.Fatal(err)
		}
		win := sim.win
		if win == nil || win.table != lt {
			t.Fatal("shared Config.Link not attached")
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[k], errs[k] = sim.RunReference()
			if sim.win != win {
				t.Errorf("arm %d: RunReference replaced the simulator's link window", k)
			}
		}()
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Fatalf("arm %d: %v", k, err)
		}
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Error("concurrent reference arms over one table disagree")
	}

	if !reflect.DeepEqual(tableRows(lt), before) || lt.FilledSlots() != tableBlockSlots {
		t.Errorf("RunReference wrote through the shared link table or filled it (%d slots filled)", lt.FilledSlots())
	}
	eng, err := New(cfg, wl, sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, results[0]) {
		t.Error("engine over the shared table diverged from the reference arms")
	}
	if lt.FilledSlots() != cfg.MaxSlots {
		t.Errorf("a run to the horizon left the table at %d of %d slots", lt.FilledSlots(), cfg.MaxSlots)
	}
}

// TestCompileLinkMemoryBytes pins that MemoryBytes reflects the packed
// layout: constant-rate sessions share one rate row across all slots.
// (That the paper model derives through radio's exact table is radio's
// TestLinkMatchesModel.)
func TestCompileLinkMemoryBytes(t *testing.T) {
	wl, err := workload.Generate(workload.PaperDefaults(3), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	cfg := PaperConfig()
	cfg.MaxSlots = 50
	lt, err := CompileLink(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := lt.MemoryBytes(), int64(3*50)*(linkRowBytes-8)+3*8; got != want {
		t.Errorf("MemoryBytes %d, want %d", got, want)
	}
}

// TestLazyTableMatchesEager: a table whose blocks are filled as readers
// reach them — here eight goroutines, each asking for every block in its
// own shuffled order and reading every slot of it — holds exactly the rows
// of a table filled eagerly from an identically generated workload, and
// fills each block once. Memoizing traces and jittered rates make every
// fill extend the sessions' memos, so under -race this is also the check
// that the table's lock is the only thing that grows them.
func TestLazyTableMatchesEager(t *testing.T) {
	const users, workers = fillUsers + 44, 8
	cfg := PaperConfig()
	cfg.MaxSlots, cfg.Workers = 4*tableBlockSlots+17, 2
	eager, err := CompileLinkTiled(cfg, fillWorkload(t, users, 0.2, false), cfg.MaxSlots)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := CompileLink(cfg, fillWorkload(t, users, 0.2, false))
	if err != nil {
		t.Fatal(err)
	}
	if lazy.FilledSlots() != tableBlockSlots || eager.FilledSlots() != cfg.MaxSlots {
		t.Fatalf("compiled: lazy %d, eager %d slots filled", lazy.FilledSlots(), eager.FilledSlots())
	}
	blocks := len(lazy.blocks)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		order := rng.New(uint64(g)).Perm(blocks)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, k := range order {
				for n := k * tableBlockSlots; n < min((k+1)*tableBlockSlots, cfg.MaxSlots); n++ {
					sig, rate := lazy.slot(n)
					wSig, wRate := eager.slot(n)
					if !slices.Equal(sig, wSig) || !slices.Equal(rate, wRate) {
						t.Errorf("slot %d: lazily filled row != eager row", n)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(tableRows(lazy), tableRows(eager)) {
		t.Error("lazy table's blocks differ from the eager table's")
	}
	if lazy.FilledSlots() != cfg.MaxSlots || lazy.MemoryBytes() != eager.MemoryBytes() {
		t.Errorf("after every block was read: %d slots, %d bytes filled; eager %d, %d",
			lazy.FilledSlots(), lazy.MemoryBytes(), cfg.MaxSlots, eager.MemoryBytes())
	}
}

// TestMaxLinkUnitsFillsPartTable: maxLinkUnits on a table of which only
// block 0 is filled reads the whole horizon, not the part that happens to
// be resident, and agrees with an eagerly filled table.
func TestMaxLinkUnitsFillsPartTable(t *testing.T) {
	cfg := PaperConfig()
	cfg.MaxSlots = 3*tableBlockSlots + 5
	// Every user's signal climbs over the horizon, so its best link lies in
	// the last block.
	ramps := func() []*workload.Session {
		wl := make([]*workload.Session, 40)
		for i := range wl {
			vals := make([]units.DBm, cfg.MaxSlots)
			for n := range vals {
				vals[n] = units.DBm(-110 + 60*float64(n)/float64(cfg.MaxSlots) - float64(i%7))
			}
			tr, err := signal.FromSlice(vals)
			if err != nil {
				t.Fatal(err)
			}
			wl[i] = &workload.Session{ID: i, Size: 5000, BaseRate: 400, Signal: tr}
		}
		return wl
	}
	eager, err := CompileLinkTiled(cfg, ramps(), cfg.MaxSlots)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := CompileLink(cfg, ramps())
	if err != nil {
		t.Fatal(err)
	}
	block0 := 0
	for _, sig := range lazy.block(0).sig {
		_, _, lu := lazy.link.At(sig)
		block0 = max(block0, lu)
	}
	want := eager.maxLinkUnits()
	if block0 == want {
		t.Fatal("script error: block 0 already holds the horizon's best link")
	}
	if got := lazy.maxLinkUnits(); got != want {
		t.Errorf("maxLinkUnits on a part-filled table = %d, eager %d", got, want)
	}
	if lazy.FilledSlots() != cfg.MaxSlots {
		t.Errorf("maxLinkUnits left %d of %d slots filled", lazy.FilledSlots(), cfg.MaxSlots)
	}
}

// TestFinishClipsPerSlot: a closed run that ends before its horizon — two
// single runs, ending on different slots — returns a per-slot series of
// exactly the slots it ran (len == cap == Slots), not the horizon-sized one
// the tick appends into; a stepped run that goes the distance returns that
// very series, uncopied.
func TestFinishClipsPerSlot(t *testing.T) {
	gen := func(seed uint64) []*workload.Session {
		wl, err := workload.Generate(workload.Config{
			Users: 6, SizeMin: 4000, SizeMax: 12000, RateMin: 300, RateMax: 600,
			Signal: workload.PaperDefaults(6).Signal,
		}, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		return wl
	}
	wl := gen(9)
	cfg := PaperConfig()
	cfg.MaxSlots = 2000
	exact := func(name string, res *Result) {
		t.Helper()
		if res.Slots >= cfg.MaxSlots {
			t.Fatalf("%s: script error: the run went the distance", name)
		}
		if len(res.PerSlot) != res.Slots || cap(res.PerSlot) != res.Slots {
			t.Errorf("%s: PerSlot len %d cap %d, want both %d", name, len(res.PerSlot), cap(res.PerSlot), res.Slots)
		}
	}
	sim, err := New(cfg, wl, sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	alone, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	exact("alone", alone)

	other, err := New(cfg, gen(10), sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	res, err := other.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Slots == alone.Slots {
		t.Fatal("script error: both runs ended on the same slot")
	}
	exact("other", res)

	cfg.RunFullHorizon = true
	sim, err = New(cfg, wl, sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Advance(cfg.MaxSlots); err != nil {
		t.Fatal(err)
	}
	ticked := &sim.curRes.PerSlot[0]
	full := sim.Finish()
	if &full.PerSlot[0] != ticked || len(full.PerSlot) != cfg.MaxSlots || cap(full.PerSlot) != cfg.MaxSlots {
		t.Errorf("full-horizon run: PerSlot copied (%v) or misshapen (len %d cap %d)",
			&full.PerSlot[0] != ticked, len(full.PerSlot), cap(full.PerSlot))
	}
}

// TestRecordTotalsHoldsNoSeries: a closed run at RecordTotals over the
// paper's 10 000-slot horizon that ends early keeps no per-slot backing
// array at all (cap 0, not a clipped copy), neither does the reference
// arm, and its totals are the default level's. The open engine, whose
// metric windows fold each slot as it is ticked, runs at the level too
// and keeps no series either.
func TestRecordTotalsHoldsNoSeries(t *testing.T) {
	wl, err := workload.Generate(workload.Config{
		Users: 6, SizeMin: 4000, SizeMax: 12000, RateMin: 300, RateMax: 600,
		Signal: workload.PaperDefaults(6).Signal,
	}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	cfg := PaperConfig()
	cfg.MaxSlots = 10000
	run := func(level RecordLevel, reference bool) *Result {
		t.Helper()
		c := cfg
		c.Record = level
		sim, err := New(c, wl, sched.NewDefault())
		if err != nil {
			t.Fatal(err)
		}
		do := sim.Run
		if reference {
			do = sim.RunReference
		}
		res, err := do()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(RecordSlots, false)
	if want.Slots >= cfg.MaxSlots {
		t.Fatal("script error: the run went the distance")
	}
	for _, reference := range []bool{false, true} {
		got := run(RecordTotals, reference)
		if got.PerSlot != nil || cap(got.PerSlot) != 0 || got.RebufferSamples != nil || got.EnergySamples != nil {
			t.Errorf("reference=%v: RecordTotals kept a series (PerSlot cap %d)", reference, cap(got.PerSlot))
		}
		if got.Slots != want.Slots || !reflect.DeepEqual(got.Users, want.Users) {
			t.Errorf("reference=%v: RecordTotals changed the run: %d slots, want %d", reference, got.Slots, want.Slots)
		}
	}
	c := cfg
	c.Record = RecordTotals
	o, err := NewOpen(OpenConfig{Cell: c, MaxSessions: len(wl)}, wl, sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := o.AdvanceTo(cfg.MaxSlots); err != nil {
		t.Fatal(err)
	}
	got := o.Finish()
	if got.PerSlot != nil || got.Slots != want.Slots || !reflect.DeepEqual(got.Users, want.Users) {
		t.Errorf("open engine at RecordTotals: PerSlot cap %d, %d slots, want none and %d", cap(got.PerSlot), got.Slots, want.Slots)
	}
}
