package simtest

import (
	"context"
	"math"
	"testing"

	"jointstream/internal/cell"
	"jointstream/internal/rng"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// TestOpenMatchesRunAllSchedulers pins the closed-world equivalence
// claim across the whole scheduler matrix: with no churn and a finite
// horizon, the open-system engine — on default 256-slot link blocks,
// 24-slot ones, or over a shared compiled link table — returns a Result
// byte-identical to cell.Run on the same inputs, for every scheduler in
// the repo, recording totals only or per-user slot samples.
func TestOpenMatchesRunAllSchedulers(t *testing.T) {
	for name, mk := range factories(t) {
		t.Run(name, func(t *testing.T) {
			for _, rec := range []cell.RecordLevel{cell.RecordUserSlots, cell.RecordTotals} {
				cfg := engineCfg()
				cfg.Record = rec
				wl, err := StaggeredWorkload(41, 6, 8)
				if err != nil {
					t.Fatal(err)
				}
				closed, err := cell.New(cfg, wl, mk())
				if err != nil {
					t.Fatal(err)
				}
				want, err := closed.Run()
				if err != nil {
					t.Fatal(err)
				}
				shared, err := cell.CompileLink(cfg, wl)
				if err != nil {
					t.Fatal(err)
				}
				for _, win := range []struct {
					name string
					tile int
					link *cell.LinkTable
				}{{"tile=0", 0, nil}, {"tile=24", 24, nil}, {"shared table", 0, shared}} {
					ocfg := cell.OpenConfig{Cell: cfg, MaxSessions: len(wl), TileSlots: win.tile}
					ocfg.Cell.Link = win.link
					o, err := cell.NewOpen(ocfg, wl, mk())
					if err != nil {
						t.Fatal(err)
					}
					got, err := o.Run(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					if err := SameResults(want, got); err != nil {
						t.Errorf("record=%d %s: open vs closed: %v", rec, win.name, err)
					}
				}
			}
		})
	}
}

// TestOpenWorkerDeterminism: the open engine inherits the closed
// engine's worker-count invariance — byte-identical Results for any
// Workers over a many-shard run with churn.
func TestOpenWorkerDeterminism(t *testing.T) {
	run := func(workers int) (*cell.Result, cell.OpenStats) {
		cfg := engineCfg()
		cfg.Capacity = 8000
		cfg.MaxSlots = 100
		cfg.ShardSize = 8
		cfg.Workers = workers
		cfg.Record = cell.RecordSlots
		cfg.RunFullHorizon = true
		wl, err := StaggeredWorkload(13, 96, 1)
		if err != nil {
			t.Fatal(err)
		}
		o, err := cell.NewOpen(cell.OpenConfig{Cell: cfg, MaxSessions: len(wl)}, wl, factories(t)["EMA"]())
		if err != nil {
			t.Fatal(err)
		}
		if err := o.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		if _, err := o.AdvanceTo(8); err != nil {
			t.Fatal(err)
		}
		// Mid-run churn on every arm, identically: users 60 and 80 joined
		// with mean interarrival 1, so at slot 8 they are still pending or
		// freshly live — never already completed.
		for _, id := range []int{60, 80} {
			ser, _ := o.Serial(id)
			if ok, err := o.DepartSerial(id, ser); err != nil || !ok {
				t.Fatalf("depart %d: ok=%v err=%v", id, ok, err)
			}
		}
		g, err := workload.NewChurnGen(churnCfg(), rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 2; k++ {
			sess, err := g.Next(0, 42+k)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := o.Admit(sess); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := o.AdvanceTo(cfg.MaxSlots); err != nil {
			t.Fatal(err)
		}
		return o.Finish(), o.Stats()
	}
	base, baseStats := run(1)
	for _, w := range []int{2, 4, 8} {
		res, st := run(w)
		if err := SameResults(base, res); err != nil {
			t.Errorf("workers=%d: %v", w, err)
		}
		if st != baseStats {
			t.Errorf("workers=%d: stats %+v != %+v", w, st, baseStats)
		}
	}
}

// churnCfg is a small paper-shaped workload config for churn draws:
// stateless traces so sessions stay memory-bounded at any horizon.
func churnCfg() workload.Config {
	cfg := workload.PaperDefaults(1)
	cfg.SizeMin = 2 * units.Megabyte
	cfg.SizeMax = 5 * units.Megabyte
	cfg.Signal.PeriodSlots = 60
	return cfg
}

// TestOpenChurnAllSchedulers smoke-tests every scheduler under
// unbounded churn: Poisson arrivals, exponential stays (some sessions
// abandon), horizon extension, window rotation. Asserts conservation of
// the session ledger and determinism of the whole run per scheduler.
func TestOpenChurnAllSchedulers(t *testing.T) {
	for name, mk := range factories(t) {
		t.Run(name, func(t *testing.T) {
			run := func() (cell.OpenStats, [2]float64) {
				cfg := engineCfg()
				cfg.Record = cell.RecordSlots
				cfg.RunFullHorizon = true
				cfg.MaxSlots = 64 // initial horizon; extends on demand
				o, err := cell.NewOpen(cell.OpenConfig{
					Cell: cfg, Unbounded: true, MaxSessions: 16,
				}, nil, mk())
				if err != nil {
					t.Fatal(err)
				}
				if err := o.Start(context.Background()); err != nil {
					t.Fatal(err)
				}
				g, err := workload.NewChurnGen(churnCfg(), rng.New(1009))
				if err != nil {
					t.Fatal(err)
				}
				src := rng.New(31)
				type stay struct {
					idx   int
					ser   uint64
					until int
				}
				var stays []stay
				slot, uid := 0, 0
				for slot < 600 {
					if _, err := o.AdvanceTo(slot + 25); err != nil {
						t.Fatal(err)
					}
					slot += 25
					// Abandonments whose stay expired — serial-guarded, so a
					// stay that lost the race against natural completion (or
					// whose slot was reused) is a clean no-op.
					keep := stays[:0]
					for _, s := range stays {
						if s.until <= slot {
							if _, err := o.DepartSerial(s.idx, s.ser); err != nil {
								t.Fatal(err)
							}
							continue
						}
						keep = append(keep, s)
					}
					stays = keep
					// One arrival per step, an exponential gap of mean 12
					// slots after the step.
					if slot < 400 {
						sess, err := g.Next(uid, slot+int(math.Ceil(src.Exp(1.0/12))))
						if err != nil {
							t.Fatal(err)
						}
						uid++
						idx, err := o.Admit(sess)
						if err != nil {
							t.Fatal(err)
						}
						ser, ok := o.Serial(idx)
						if !ok {
							t.Fatalf("no serial for freshly admitted slot %d", idx)
						}
						// An exponential stay of mean 90 slots.
						if st := int(math.Ceil(src.Exp(1.0 / 90))); st > 0 && src.Bool(0.4) {
							stays = append(stays, stay{idx: idx, ser: ser, until: slot + st})
						}
					}
				}
				// Drain: stop admitting, serve until everyone finishes.
				for i := 0; i < 200; i++ {
					st := o.Stats()
					if st.InService == 0 {
						break
					}
					if _, err := o.AdvanceTo(o.Stats().Slot + 50); err != nil {
						t.Fatal(err)
					}
				}
				return o.Stats(), [2]float64{o.RebufferQuantile(0.5), o.RebufferQuantile(0.99)}
			}
			st, q := run()
			if st.Admitted != st.Completed+st.Departed+st.InService {
				t.Fatalf("session ledger leaks: %+v", st)
			}
			// RTMA carries a finite lifetime energy budget: on an unbounded
			// horizon it legitimately stops serving once the budget is spent,
			// so full drain and completions can't be demanded of it.
			if name != "RTMA" {
				if st.InService != 0 {
					t.Fatalf("drain left %d sessions in service: %+v", st.InService, st)
				}
				if st.Completed == 0 {
					t.Fatalf("degenerate churn run: %+v", st)
				}
			}
			if st.Admitted == 0 {
				t.Fatalf("degenerate churn run: %+v", st)
			}
			// Determinism: the whole churn script replays identically.
			if st2, q2 := run(); st != st2 || q != q2 {
				t.Fatalf("churn run not deterministic: %+v %v vs %+v %v", st, q, st2, q2)
			}
		})
	}
}
