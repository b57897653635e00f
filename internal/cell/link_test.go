package cell

import (
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
			return signal.NewSine(signal.SineConfig{
				Bounds:      signal.DefaultBounds,
				PeriodSlots: 120,
				Phase:       float64(i),
				NoiseStdDBm: 10,
			}, src)
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
// generator, every user, and every slot, the packed row equals what the
// uncompiled tick path would compute from the interfaces — signal,
// throughput, per-KB energy, required rate, and the floored Eq. (1)
// link limit. Equality is ==, not approximate.
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
			tau, unit := float64(cfg.Tau), float64(cfg.Unit)
			for n := 0; n < slots; n++ {
				sigs, links, epkbs, rates, lus := lt.slot(n, users)
				for i, sess := range sessions {
					sig := sess.Signal.At(n)
					if sigs[i] != sig {
						t.Fatalf("user %d slot %d: sig %v != %v", i, n, sigs[i], sig)
					}
					if v := cfg.Radio.Throughput.Throughput(sig); links[i] != v {
						t.Fatalf("user %d slot %d: link %v != %v", i, n, links[i], v)
					}
					if p := cfg.Radio.Power.EnergyPerKB(sig); epkbs[i] != p {
						t.Fatalf("user %d slot %d: energy/KB %v != %v", i, n, epkbs[i], p)
					}
					if rate := sess.RateAt(n); rates[i] != rate {
						t.Fatalf("user %d slot %d: rate %v != %v", i, n, rates[i], rate)
					}
					want := floorUnits(float64(cfg.Radio.Throughput.Throughput(sig))*tau, unit)
					if int(lus[i]) != want {
						t.Fatalf("user %d slot %d: linkUnits %d != %d", i, n, lus[i], want)
					}
				}
			}
		})
	}
}

// TestRunBitwiseEqualWithLinkTable runs the full engine with the table
// enabled and disabled and requires identical Results — flattening is
// plumbing, not physics.
func TestRunBitwiseEqualWithLinkTable(t *testing.T) {
	wl, err := workload.Generate(workload.PaperDefaults(8), rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	base := PaperConfig()
	base.MaxSlots = 1500
	runWith := func(maxRows int) *Result {
		cfg := base
		cfg.LinkTableMaxRows = maxRows
		sim, err := New(cfg, wl, sched.NewDefault())
		if err != nil {
			t.Fatal(err)
		}
		if (maxRows >= 0) != (sim.win != nil) {
			t.Fatalf("maxRows=%d: link window presence %v", maxRows, sim.win != nil)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	with := runWith(0)     // auto-compiled table
	without := runWith(-1) // interface path
	if !reflect.DeepEqual(with, without) {
		t.Error("Result differs between link-table and analytic runs")
	}
}

// TestAutoLinkTableCap checks the size gate: a run over the row cap
// falls back to the interface path instead of allocating a huge table.
func TestAutoLinkTableCap(t *testing.T) {
	wl, err := workload.Generate(workload.PaperDefaults(4), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := PaperConfig()
	cfg.MaxSlots = 100
	cfg.LinkTableMaxRows = 4*100 - 1 // one row short of fitting
	sim, err := New(cfg, wl, sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	if sim.win != nil {
		t.Error("over-cap run compiled a table")
	}
	cfg.LinkTableMaxRows = 4 * 100
	sim, err = New(cfg, wl, sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	if sim.win == nil {
		t.Error("at-cap run skipped the table")
	}
}

// TestConfigLinkCompatibility rejects caller-supplied tables that do not
// match the run.
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

	grid := cfg
	grid.Link = lt
	grid.Tau = cfg.Tau * 2
	if _, err := New(grid, wl, sched.NewDefault()); err == nil {
		t.Error("table with mismatched slot grid accepted")
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

	// Same shape and slot grid, different radio model: the sampled-row
	// re-derivation must reject it instead of silently replaying the
	// wrong physics.
	model := cfg
	model.Link = lt
	model.Radio = radio.LTE()
	if _, err := New(model, wl, sched.NewDefault()); err == nil {
		t.Error("table compiled under a different radio model accepted")
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

// TestRunReferenceKeepsLinkTable pins the reference arm's independence
// from the compiled table: it bypasses the table without mutating the
// Simulator (s.win survives the run, so nothing observing the Simulator
// concurrently can see it flip), and it prepares into static columns it
// owns — two arms run concurrently against one shared monolithic
// Config.Link (under -race in CI) and leave every row of the table
// bit-unchanged, so an engine arm attached afterwards still reproduces
// them exactly.
func TestRunReferenceKeepsLinkTable(t *testing.T) {
	wl, err := workload.Generate(workload.PaperDefaults(4), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := PaperConfig()
	cfg.MaxSlots = 200
	lt, err := CompileLink(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Link = lt
	before := linkCols{
		sig:  slices.Clone(lt.sig),
		link: slices.Clone(lt.link),
		epkb: slices.Clone(lt.epkb),
		rate: slices.Clone(lt.rate),
		lu:   slices.Clone(lt.lu),
	}

	var wg sync.WaitGroup
	results := make([]*Result, 2)
	errs := make([]error, 2)
	for k := range results {
		sim, err := New(cfg, wl, sched.NewDefault())
		if err != nil {
			t.Fatal(err)
		}
		win := sim.win
		if win == nil || &win.cur.sig[0] != &lt.sig[0] {
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

	if !slices.Equal(lt.sig, before.sig) || !slices.Equal(lt.link, before.link) ||
		!slices.Equal(lt.epkb, before.epkb) || !slices.Equal(lt.rate, before.rate) ||
		!slices.Equal(lt.lu, before.lu) {
		t.Error("RunReference wrote through the shared link table")
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
}

// TestCompileLinkUsesLUTForPaperModel pins that the paper model goes
// through the exact radio table (the devirtualized path) and that
// MemoryBytes reflects the packed layout: constant-rate sessions share
// one rate row across all slots.
func TestCompileLinkUsesLUTForPaperModel(t *testing.T) {
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
	if !lt.ViaLUT() {
		t.Error("paper model did not compile through the exact LUT")
	}
	if got, want := lt.MemoryBytes(), int64(3*50)*(linkRowBytes-8)+3*8; got != want {
		t.Errorf("MemoryBytes %d, want %d", got, want)
	}
}
