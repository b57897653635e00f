package simtest

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"jointstream/internal/cell"
	"jointstream/internal/oracle"
	"jointstream/internal/rng"
	"jointstream/internal/sched"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// TestSharedLazyTableReaders puts every kind of reader the experiment
// harness hands one scenario's link table on one lazily filled table at
// once — three runs one after another on one goroutine, a single run, a
// Predictive run steered by the exact Forecast, one steered by a
// NoisyForecast, and oracle.Compute — and requires each to get, reflect.DeepEqual, what the same reader gets
// alone on a private, eagerly filled table of an identically generated
// workload. The runs end at different slots, so blocks are first reached
// by whichever reader gets there first; under -race this is the check that
// the readers share nothing but the table's published blocks, and that the
// table alone grows the sessions' memos.
func TestSharedLazyTableReaders(t *testing.T) {
	cfg := cell.PaperConfig()
	cfg.Capacity = 5000
	cfg.MaxSlots = 1100
	gen := func() []*workload.Session {
		wc := workload.PaperDefaults(8)
		wc.SizeMin, wc.SizeMax = 100*units.Megabyte, 200*units.Megabyte
		wc.Signal.PeriodSlots = 60
		wc.MeanInterarrival = 4
		wl, err := workload.Generate(wc, rng.New(17))
		if err != nil {
			t.Fatal(err)
		}
		return wl
	}
	predictive := func(f sched.Forecast) (sched.Scheduler, error) {
		return sched.NewPredictive(sched.PredictiveConfig{Lookahead: 8, Forecast: f})
	}
	// readers run one reader over a table and its sessions; each returns
	// what it read. They run on goroutines of their own, so they report
	// errors instead of failing the test.
	readers := map[string]func(lt *cell.LinkTable, wl []*workload.Session) (any, error){
		"serial": func(lt *cell.LinkTable, wl []*workload.Session) (any, error) {
			ema, err := sched.NewEMA(sched.EMAConfig{V: 0.2, RRC: cfg.RRC})
			if err != nil {
				return nil, err
			}
			rtma, err := sched.NewRTMA(sched.RTMAConfig{Budget: 500, Radio: cfg.Radio, RRC: cfg.RRC})
			if err != nil {
				return nil, err
			}
			var rs []*cell.Result
			for _, s := range []sched.Scheduler{sched.NewDefault(), ema, rtma} {
				res, err := runOn(cfg, lt, wl, s)
				if err != nil {
					return nil, err
				}
				rs = append(rs, res)
			}
			return rs, nil
		},
		"single": func(lt *cell.LinkTable, wl []*workload.Session) (any, error) {
			onOff, err := sched.NewOnOff(10, 40)
			if err != nil {
				return nil, err
			}
			return runOn(cfg, lt, wl, onOff)
		},
		"forecast": func(lt *cell.LinkTable, wl []*workload.Session) (any, error) {
			p, err := predictive(lt.Forecast())
			if err != nil {
				return nil, err
			}
			return runOn(cfg, lt, wl, p)
		},
		"noisy": func(lt *cell.LinkTable, wl []*workload.Session) (any, error) {
			nf, err := cell.NewNoisyForecast(lt, 5, 0.3)
			if err != nil {
				return nil, err
			}
			p, err := predictive(nf)
			if err != nil {
				return nil, err
			}
			return runOn(cfg, lt, wl, p)
		},
		"oracle": func(lt *cell.LinkTable, wl []*workload.Session) (any, error) {
			return oracle.Compute(oracleCfgFor(cfg, lt), wl)
		},
	}

	wl := gen()
	shared, err := cell.CompileLink(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]any, len(readers))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for name, read := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := read(shared, wl)
			if err != nil {
				t.Errorf("%s on the shared table: %v", name, err)
				return
			}
			mu.Lock()
			got[name] = v
			mu.Unlock()
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for name, read := range readers {
		own := gen()
		eager, err := cell.CompileLinkTiled(cfg, own, cfg.MaxSlots)
		if err != nil {
			t.Fatal(err)
		}
		want, err := read(eager, own)
		if err != nil {
			t.Fatalf("%s on a private table: %v", name, err)
		}
		if !reflect.DeepEqual(got[name], want) {
			t.Errorf("%s: what it read from the shared lazy table differs from a private eager table", name)
		}
	}
	if res := got["serial"].([]*cell.Result); res[0].Slots >= cfg.MaxSlots || res[0].Slots < 256 {
		t.Errorf("script error: the Default run ran %d slots, want an early finish past the first block", res[0].Slots)
	}
}

// runOn runs one scheduler over a table and the sessions it was compiled
// from.
func runOn(cfg cell.Config, lt *cell.LinkTable, wl []*workload.Session, s sched.Scheduler) (*cell.Result, error) {
	cfg.Link = lt
	sim, err := cell.New(cfg, wl, s)
	if err != nil {
		return nil, fmt.Errorf("New: %w", err)
	}
	return sim.Run()
}
