package cell

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"jointstream/internal/radio"
	"jointstream/internal/rng"
	"jointstream/internal/sched"
	"jointstream/internal/signal"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// fillWorkload is n generated sessions (memoizing or stateless sine, with
// or without rate jitter) with every fifth one switched to a trace kind
// that has no signal.Filler, so one block stages all the paths.
func fillWorkload(t *testing.T, n int, jitterFrac float64, stateless bool) []*workload.Session {
	t.Helper()
	wc := workload.PaperDefaults(n)
	wc.SizeMin, wc.SizeMax = 2000, 9000
	wc.RateJitterFrac = jitterFrac
	wc.StatelessSignal = stateless
	wc.MeanInterarrival = 0.05
	wl, err := workload.Generate(wc, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(23)
	for i := 0; i < n; i += 5 {
		var tr signal.Trace
		switch (i / 5) % 3 {
		case 0:
			tr, err = signal.NewRandomWalk(signal.RandomWalkConfig{Bounds: signal.DefaultBounds, Start: -80, StepStd: 2.5}, src)
		case 1:
			tr, err = signal.NewGilbertElliott(signal.GilbertElliottConfig{Bounds: signal.DefaultBounds, Good: -60, Bad: -100, PGoodToBad: 0.05, PBadToGood: 0.1, JitterStd: 3}, src)
		default:
			tr = signal.Constant(units.DBm(-55-float64(i%50)), signal.DefaultBounds)
		}
		if err != nil {
			t.Fatal(err)
		}
		wl[i].Signal = tr
	}
	return wl
}

// chordCurve is a throughput model with no exact table (radio keeps one
// for its own fits only): piecewise linear through its (dBm, KB/s)
// breakpoints, ascending in signal, and flat past either end.
type chordCurve [][2]float64

func (c chordCurve) Throughput(sig units.DBm) units.KBps {
	x := float64(sig)
	for k := 1; k < len(c); k++ {
		if a, b := c[k-1], c[k]; x < b[0] {
			return units.KBps(a[1] + max(x-a[0], 0)/(b[0]-a[0])*(b[1]-a[1]))
		}
	}
	return units.KBps(c[len(c)-1][1])
}

// chordRadio is a model with no exact table: the fill must evaluate it
// through the interfaces.
func chordRadio() radio.Model {
	pw := chordCurve{{-110, 300}, {-90, 900}, {-70, 2500}, {-50, 4200}}
	return radio.Model{Throughput: pw, Power: radio.FittedPower{Base: -0.167, Scale: 1560, V: pw}}
}

// slotView returns one slot's signal and rate views: a table's, or a link
// window's once the slot is resident.
type slotView func(n int) ([]units.DBm, []units.KBps)

func tableView(lt *LinkTable) slotView { return lt.slot }

func windowView(w *linkWindow) slotView {
	return func(n int) ([]units.DBm, []units.KBps) {
		w.ensure(n)
		return w.slotColumns(n, len(w.src))
	}
}

// Hand-off thresholds that send every fill to the background, or none.
const (
	handoffAlways = 0
	handoffNever  = math.MaxInt
)

// checkRowsAnalytic asserts that slot n's rows hold, for every listed row,
// exactly the signal and rate the analytic prepare reads, and that what
// radio.Link derives from the row's signal is what that prepare computes
// through the interfaces.
func checkRowsAnalytic(t *testing.T, view slotView, cfg Config, wl []*workload.Session, n int, rows []int) {
	t.Helper()
	link, err := radio.NewLink(cfg.Radio, cfg.Tau, cfg.Unit)
	if err != nil {
		t.Fatal(err)
	}
	sig, rate := view(n)
	tau, unit := float64(cfg.Tau), float64(cfg.Unit)
	for _, i := range rows {
		s := wl[i].Signal.At(n)
		v, p, lu := link.At(sig[i])
		wantV := cfg.Radio.Throughput.Throughput(s)
		wantP, wantLU := cfg.Radio.Power.EnergyPerKB(s), floorUnits(float64(wantV)*tau, unit)
		if sig[i] != s || rate[i] != wl[i].RateAt(n) || v != wantV || p != wantP || lu != wantLU {
			t.Fatalf("slot %d user %d: row (%v %v) derived (%v %v %d) != analytic (%v %v) (%v %v %d)", n, i,
				sig[i], rate[i], v, p, lu, s, wl[i].RateAt(n), wantV, wantP, wantLU)
		}
	}
}

// TestFillKernelMatchesAnalytic is the kernel's keystone: for a user count
// that is not a multiple of the shard width, a window that does not
// divide the horizon, every worker count, constant and jittered rates,
// exact-table and interface-only radio models, each row of the compiled
// table and of the link window — its fills handed to the background or
// done in place — equals the analytic path's, bit for bit; and once rows
// are dropped a fill rewrites exactly the rows still listed.
func TestFillKernelMatchesAnalytic(t *testing.T) {
	const users, slots, window = 2*fillUsers + 37, 150, 64
	all := make([]int, users)
	for i := range all {
		all[i] = i
	}
	// Runs of one, a long run across a shard boundary, and the last row.
	var live []int
	isLive := make([]bool, users)
	for i := 0; i < users; i++ {
		if i%3 == 0 || (i > fillUsers-20 && i < fillUsers+90) || i == users-1 {
			live = append(live, i)
			isLive[i] = true
		}
	}
	for _, tc := range []struct {
		name      string
		jitter    float64
		stateless bool
		chord     bool
	}{{"const-rate", 0, false, false}, {"jitter", 0.2, false, false}, {"stateless", 0, true, false}, {"chord-radio", 0.2, false, true}} {
		for _, workers := range []int{1, 2, 3, 8} {
			t.Run(fmt.Sprintf("%s/w%d", tc.name, workers), func(t *testing.T) {
				wl := fillWorkload(t, users, tc.jitter, tc.stateless)
				cfg := PaperConfig()
				cfg.MaxSlots, cfg.Workers = slots, workers
				if tc.chord {
					cfg.Radio = chordRadio()
				}
				mono, err := CompileLink(cfg, wl)
				if err != nil {
					t.Fatal(err)
				}
				if shared := mono.sharedRate; shared != (tc.jitter == 0) {
					t.Fatalf("shared rate row = %v with jitter %v", shared, tc.jitter)
				}
				for n := 0; n < slots; n++ {
					checkRowsAnalytic(t, tableView(mono), cfg, wl, n, all)
				}
				for _, handoff := range []int{handoffAlways, handoffNever} {
					w := newLinkWindow(workers, window, users, slots, constRate(wl), wl)
					w.handoffMin = handoff
					defer w.stop()
					// The first ensure borrows the resident block, in the
					// rate shape the table's blocks have.
					w.ensure(0)
					if w.cur.rateStride != mono.block(0).rateStride {
						t.Fatalf("window: rate stride %d", w.cur.rateStride)
					}
					for n := 0; n < slots; n++ {
						checkRowsAnalytic(t, windowView(w), cfg, wl, n, all)
					}

					// Drop every row that is not live, jump back to slot 0 and
					// replay: each window is now filled — in place at slot 0 and
					// at the jump to the last, short window, a block ahead in
					// between — with only the live rows listed, and the others
					// keep whatever the block held.
					for i := range all {
						if !isLive[i] {
							w.dropRow(i)
						}
					}
					for _, n := range []int{0, window - 1, window, 2*window + 5, slots - 1} {
						// A block refilled in place keeps the dropped rows' old
						// values at the same offsets.
						inPlace := w.willEvict(n) && handoff == handoffNever
						held, _ := w.cur.slot(n%window, users)
						held = slices.Clone(held)
						checkRowsAnalytic(t, windowView(w), cfg, wl, n, live)
						sig, _ := w.slotColumns(n, users)
						for i := range sig {
							if inPlace && !isLive[i] && sig[i] != held[i] {
								t.Fatalf("slot %d: row %d is dropped but was refilled", n, i)
							}
						}
					}
				}
			})
		}
	}
}

// TestOpenTileMatchesAnalyticAtScale runs a bounded open cell wider than
// one shard, on memoizing traces with rate jitter, with the tile's
// background fills racing the tick on several workers until the first
// arrival, while sessions depart (leaving holes in the live-row list)
// and arrive; every slot's
// view must match the model's interfaces (analyticView), and the result be
// byte-identical to the same script on default blocks. Under -race this
// is also the check that a fill never grows a trace memo: the tile stops
// filling at the horizon the sessions were prewarmed to.
func TestOpenTileMatchesAnalyticAtScale(t *testing.T) {
	const initial, late, slots = 2*fillUsers + 60, 40, 100
	script := func(tileSlots int) (*Result, OpenStats) {
		wl := fillWorkload(t, initial+late, 0.2, false)
		cfg := PaperConfig()
		cfg.Capacity = units.KBps(initial * 400)
		cfg.MaxSlots, cfg.Workers, cfg.RunFullHorizon = slots, 3, true
		chk := &analyticView{Scheduler: sched.NewDefault()}
		o, err := NewOpen(OpenConfig{Cell: cfg, MaxSessions: initial + late, TileSlots: tileSlots}, wl[:initial], chk)
		if err != nil {
			t.Fatal(err)
		}
		chk.o = o
		defer chk.check(t)
		defer o.Stop()
		if err := o.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		next := initial
		for n := 5; n <= slots; n += 5 {
			if _, err := o.AdvanceTo(n); err != nil {
				t.Fatal(err)
			}
			// Four departures spread over the table, two arrivals: the
			// live-row list thins out and is refilled lowest slot first.
			for k := 0; k < 4; k++ {
				if ser, ok := o.Serial((n*37 + k*151) % initial); ok {
					if _, err := o.DepartSerial(-1, ser); err != nil {
						t.Fatal(err)
					}
				}
			}
			for k := 0; k < 2 && next < len(wl) && n < slots; k++ {
				if _, err := o.Admit(wl[next]); err != nil {
					t.Fatal(err)
				}
				next++
			}
		}
		return o.Finish(), o.Stats()
	}
	resA, stA := script(0)
	resB, stB := script(16)
	if !reflect.DeepEqual(resA, resB) {
		t.Fatalf("tiled open run differs from the one on default blocks: energy %v vs %v, rebuffer %v vs %v",
			resA.TotalEnergy(), resB.TotalEnergy(), resA.TotalRebuffer(), resB.TotalRebuffer())
	}
	if stA != stB {
		t.Fatalf("stats differ: default blocks %+v, tiled %+v", stA, stB)
	}
	if stA.Departed == 0 || stA.Admitted <= initial {
		t.Fatalf("script exercised no churn: %+v", stA)
	}
}

// TestOpenRateRowFollowsSessions: a bounded open cell on a link window
// keeps one rate row per block while every session it serves is
// constant-rate, as the closed engine does, through constant-rate
// arrivals too; the first VBR arrival widens the row before its own row
// is filled. Scripted like TestOpenTileMatchesAnalyticAtScale —
// background fills racing the tick until the first arrival, departures
// leaving holes — the run stays byte-identical to the script on default
// blocks.
func TestOpenRateRowFollowsSessions(t *testing.T) {
	const initial, late, slots = 2*fillUsers + 60, 40, 100
	script := func(tileSlots int) (*Result, OpenStats) {
		wl := append(fillWorkload(t, initial+late/2, 0, false), fillWorkload(t, late/2, 0.2, false)...)
		cfg := PaperConfig()
		cfg.Capacity = units.KBps(initial * 400)
		cfg.MaxSlots, cfg.Workers, cfg.RunFullHorizon = slots, 3, true
		o, err := NewOpen(OpenConfig{Cell: cfg, MaxSessions: initial + late, TileSlots: tileSlots}, wl[:initial], sched.NewDefault())
		if err != nil {
			t.Fatal(err)
		}
		defer o.Stop()
		if err := o.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		// shared reports whether the window's blocks keep one rate row.
		shared := func() bool {
			w := o.eng.win
			return w.cur.rateStride == 0 && (w.next.sig == nil || w.next.rateStride == 0)
		}
		next := initial
		for n := 5; n <= slots; n += 5 {
			if _, err := o.AdvanceTo(n); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 4; k++ {
				if ser, ok := o.Serial((n*37 + k*151) % initial); ok {
					if _, err := o.DepartSerial(-1, ser); err != nil {
						t.Fatal(err)
					}
				}
			}
			for k := 0; k < 3 && next < len(wl) && n < slots; k++ {
				vbr := wl[next].RateJitter != 0
				if shared() == (next > initial+late/2) {
					t.Fatalf("arrival %d (VBR %v): shared rate row %v", next, vbr, shared())
				}
				if _, err := o.Admit(wl[next]); err != nil {
					t.Fatal(err)
				}
				if shared() == vbr {
					t.Fatalf("after arrival %d (VBR %v): shared rate row %v", next, vbr, shared())
				}
				next++
			}
		}
		if next != len(wl) {
			t.Fatalf("script admitted %d of %d arrivals", next-initial, len(wl)-initial)
		}
		return o.Finish(), o.Stats()
	}
	resA, stA := script(0)
	resB, stB := script(16)
	if !reflect.DeepEqual(resA, resB) {
		t.Fatalf("tiled open run differs from the one on default blocks: energy %v vs %v, rebuffer %v vs %v",
			resA.TotalEnergy(), resB.TotalEnergy(), resA.TotalRebuffer(), resB.TotalRebuffer())
	}
	if stA != stB {
		t.Fatalf("stats differ: default blocks %+v, tiled %+v", stA, stB)
	}
}

// benchLinkRefill times the link window's block fill on its own: a window
// of `users` prewarmed paper sessions and `tile`-slot blocks is bounced
// between the horizon's two windows with hand-off disabled, so every
// ensure below refills users × tile rows in place, on the caller and its
// fan-out. ns/row (a row is one user-slot) is what the perf gate tracks;
// the all-cores tier beating the one-worker tier is what contiguous
// user-range shards bought — with one user per shard the workers shared
// every cache line they wrote and it lost.
func benchLinkRefill(b *testing.B, users, tile, workers int) {
	const refillsPerIter = 4 // so -benchtime=1x still averages a few
	wl, err := workload.Generate(workload.PaperDefaults(users), rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	cfg := PaperConfig()
	cfg.MaxSlots = 2 * tile
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workload.PrewarmAll(workers, wl, cfg.MaxSlots)
	w := newLinkWindow(workers, tile, users, cfg.MaxSlots, constRate(wl), wl)
	w.handoffMin = handoffNever
	w.ensure(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < refillsPerIter; k++ {
			// Window 0 is resident; alternate from 1.
			n := ((k + 1) % 2) * tile
			if !w.willEvict(n) {
				b.Fatalf("slot %d is resident: nothing to refill", n)
			}
			w.ensure(n)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*refillsPerIter*users*tile), "ns/row")
}

// BenchmarkLinkRefill's name, tiers and unit are fixed: the perf-gate CI
// job compares its ns/row column between a PR and its merge base.
func BenchmarkLinkRefill(b *testing.B) {
	b.Run("n100000_t64_w1", func(b *testing.B) { benchLinkRefill(b, 100_000, 64, 1) })
	b.Run("n100000_t64_wmax", func(b *testing.B) { benchLinkRefill(b, 100_000, 64, 0) })
}

// TestLinkFillGatheredMatchesDense holds a fill of a row list to a fill
// of the whole table, read back at the listed rows, bit for bit: every
// column, every slot, from a staging pass that starts mid-stage and ends
// in a short one, into a block at offset 0 and into one already in use
// (a patch). The lists are the shapes a block can take — one row, one run
// of rows, gapped runs, a full block of consecutive rows, a contiguous
// block followed by a gapped one, and 255, 256 and 257 scattered rows
// across the block edge — so both the contiguous emit and the scatter run. Sessions with rate jitter write a rate row per
// slot; constant-rate ones share the block's one rate row.
func TestLinkFillGatheredMatchesDense(t *testing.T) {
	const users, base, slots = 3*fillUsers + 40, 3, fillSlots + 9
	span := func(lo, hi int) []int {
		var rows []int
		for i := lo; i < hi; i++ {
			rows = append(rows, i)
		}
		return rows
	}
	every := func(n, from, step int) []int {
		var rows []int
		for k := 0; k < n; k++ {
			rows = append(rows, from+k*step)
		}
		return rows
	}
	lists := map[string][]int{
		"one-row":     {417},
		"one-run":     span(300, 340),
		"gapped-runs": append(append(span(10, 20), span(30, 50)...), span(250, 270)...),
		"full-block":  span(100, 100+fillUsers),
		"mixed":       append(span(20, 20+fillUsers), every(30, 20+fillUsers+1, 2)...),
		"255":         every(255, 1, 3),
		"256":         every(256, 0, 2),
		"257":         every(257, 5, 2),
	}
	for _, jitter := range []float64{0, 0.2} {
		wl := fillWorkload(t, users, jitter, false)
		workload.PrewarmAll(1, wl, base+slots)
		for _, workers := range []int{1, 2} {
			src := newRowSource(users, wl)
			dense := newLinkFiller(workers, users)
			want := newLinkCols(users, slots, jitter == 0)
			dense.fill(&want, src, nil, users, 0, base, base+slots)
			for name, rows := range lists {
				for _, off := range []int{0, 5} {
					got := newLinkCols(users, slots, jitter == 0)
					gathered := newLinkFiller(workers, users)
					gathered.fill(&got, src, rows, 0, off, base+off, base+slots)
					for so := off; so < slots; so++ {
						wSig, wRate := want.slot(so, users)
						gSig, gRate := got.slot(so, users)
						for _, i := range rows {
							if math.Float64bits(float64(wSig[i])) != math.Float64bits(float64(gSig[i])) ||
								math.Float64bits(float64(wRate[i])) != math.Float64bits(float64(gRate[i])) {
								t.Fatalf("jitter %v w%d %s off %d: slot %d row %d: gathered (%v %v) != dense (%v %v)",
									jitter, workers, name, off, base+so, i, gSig[i], gRate[i], wSig[i], wRate[i])
							}
						}
					}
				}
			}
		}
	}
}

// BenchmarkLinkPatch times what a churn flush fills: 64 rows scattered
// over an 11 000-row table, every slot of a 32-slot window, on one worker
// — the shape a slot's admissions take in cell_churn. ns/row (a row is
// one row-slot) against BenchmarkLinkRefill's one-worker tier is what a
// scattered row costs against a block row.
func BenchmarkLinkPatch(b *testing.B) {
	const users, rows, tile = 11_000, 64, 32
	wl, err := workload.Generate(workload.PaperDefaults(users), rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	workload.PrewarmAll(1, wl, tile)
	f := newLinkFiller(1, users)
	sessions := newRowSource(users, wl)
	dst := newLinkCols(users, tile, constRate(wl))
	src := rng.New(5)
	list := make([]int, 0, rows)
	for len(list) < rows {
		if i := src.Intn(users); !slices.Contains(list, i) {
			list = append(list, i)
		}
	}
	slices.Sort(list)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.fill(&dst, sessions, list, 0, 0, 0, tile)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows*tile), "ns/row")
}
