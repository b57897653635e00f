package simtest

import (
	"fmt"
	"testing"

	"jointstream/internal/cell"
	"jointstream/internal/oracle"
	"jointstream/internal/sched"
	"jointstream/internal/signal"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// This file pins the Predictive scheduler's degeneration and ordering
// contracts at full-simulation granularity:
//
//   - Every configuration that carries no usable future information —
//     K = 0, a nil forecast, or a fully corrupted one — must reproduce
//     the myopic Default baseline's physics byte-for-byte.
//   - The engine and the full-scan reference agree on forecast-driven
//     runs (exact and noise-corrupted), across worker counts.
//   - With an exact forecast and no contention pressure, more lookahead
//     never hurts: the oracle gap is non-increasing in K.

// predictiveRunTotal runs one full simulation and returns the result
// plus summed (trans+tail) energy.
func predictiveRunTotal(t *testing.T, cfg cell.Config, sessions []*workload.Session, s sched.Scheduler) (*cell.Result, units.MJ) {
	t.Helper()
	sim, err := cell.New(cfg, sessions, s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	var total units.MJ
	for _, u := range res.Users {
		total += u.TransEnergy + u.TailEnergy
	}
	return res, total
}

// TestPredictiveMyopicDegeneration is the differential parity matrix:
// three informationless Predictive arms against the Default baseline,
// across every trace model and worker count. SamePhysics (SameResults
// minus the scheduler name) must hold — the arms differ only in how
// they conclude there is nothing to predict.
func TestPredictiveMyopicDegeneration(t *testing.T) {
	arms := []struct {
		name  string
		build func(t *testing.T, lt *cell.LinkTable) sched.Scheduler
	}{
		{"K=0", func(t *testing.T, lt *cell.LinkTable) sched.Scheduler {
			p, err := sched.NewPredictive(sched.PredictiveConfig{Lookahead: 0, Forecast: lt.Forecast()})
			if err != nil {
				t.Fatal(err)
			}
			return p
		}},
		{"nil-forecast", func(t *testing.T, lt *cell.LinkTable) sched.Scheduler {
			p, err := sched.NewPredictive(sched.PredictiveConfig{Lookahead: 8})
			if err != nil {
				t.Fatal(err)
			}
			return p
		}},
		{"err=100%", func(t *testing.T, lt *cell.LinkTable) sched.Scheduler {
			nf, err := cell.NewNoisyForecast(lt, 5, 1.0)
			if err != nil {
				t.Fatal(err)
			}
			p, err := sched.NewPredictive(sched.PredictiveConfig{Lookahead: 8, Forecast: nf})
			if err != nil {
				t.Fatal(err)
			}
			return p
		}},
	}
	for _, model := range traceModels {
		for _, workers := range []int{1, 4, 0} {
			for _, arm := range arms {
				t.Run(fmt.Sprintf("%s/workers=%d/%s", model, workers, arm.name), func(t *testing.T) {
					cfg := engineCfg()
					cfg.Workers = workers
					lt, err := cell.CompileLink(cfg, traceSessions(t, model, 6))
					if err != nil {
						t.Fatal(err)
					}
					cfg.Link = lt
					ref, _ := predictiveRunTotal(t, cfg, traceSessions(t, model, 6), sched.NewDefault())
					got, _ := predictiveRunTotal(t, cfg, traceSessions(t, model, 6), arm.build(t, lt))
					if err := SamePhysics(got, ref); err != nil {
						t.Errorf("model %s workers %d arm %s diverged from Default: %v", model, workers, arm.name, err)
					}
				})
			}
		}
	}
}

// TestEngineMatrixPredictiveForecast extends the engine-vs-reference
// acceptance matrix to the forecast-driven configurations the factories
// can't express (they need a compiled table): exact table forecasts and
// noise-corrupted ones, across trace models and worker counts.
func TestEngineMatrixPredictiveForecast(t *testing.T) {
	for _, model := range traceModels {
		for _, errFrac := range []float64{0, 0.3} {
			for _, workers := range []int{1, 4, 0} {
				t.Run(fmt.Sprintf("%s/err=%g/workers=%d", model, errFrac, workers), func(t *testing.T) {
					ref, build := engineArms(func() (cell.Config, []*workload.Session, sched.Scheduler, error) {
						cfg := engineCfg()
						cfg.Workers = workers
						sessions := traceSessions(t, model, 6)
						lt, err := cell.CompileLink(cfg, sessions)
						if err != nil {
							return cfg, nil, nil, err
						}
						cfg.Link = lt
						var fc sched.Forecast = lt.Forecast()
						if errFrac > 0 {
							if fc, err = cell.NewNoisyForecast(lt, 23, errFrac); err != nil {
								return cfg, nil, nil, err
							}
						}
						p, err := sched.NewPredictive(sched.PredictiveConfig{Lookahead: 8, Forecast: fc})
						return cfg, sessions, p, err
					})
					if err := CheckEngineEquivalence(true, ref, build); err != nil {
						t.Error(err)
					}
				})
			}
		}
	}
}

// monotoneSessions builds the clean scenario for the lookahead-ordering
// test: noiseless sine channels (the price landscape is a smooth wave,
// so a deeper window always sees a weakly better minimum) and finite
// clips small enough to finish well inside the horizon.
func monotoneSessions(t *testing.T, users int) []*workload.Session {
	t.Helper()
	sessions := make([]*workload.Session, users)
	for i := range sessions {
		tr, err := signal.NewStatelessSine(signal.SineConfig{
			Bounds:      signal.DefaultBounds,
			PeriodSlots: 40,
			Phase:       1.3 * float64(i),
		}, 1)
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = &workload.Session{
			ID: i, Size: 3000, BaseRate: 300, Signal: tr,
		}
	}
	return sessions
}

// TestOracleGapMonotoneInK asserts the ordering property behind the
// predictive extension figure: with an exact forecast and no capacity
// contention, total energy — hence the gap to the (fixed) oracle lower
// bound — is non-increasing as the lookahead K grows. The property is
// not universal: greedy deferral can lose to a shallower window when a
// deep minimum sits just past what the buffer can wait out (the
// NeedUnits survival branch buys at the current price instead of the
// nearer dip), and under contention deferring users re-collide at
// shared minima — the quick-scale sweep and a phase-3.9 single user
// both show the wiggle. So the test pins the chains where the ordering
// does hold, and any regression in the defer rule that breaks them is
// a real behavior change.
func TestOracleGapMonotoneInK(t *testing.T) {
	for _, users := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("users=%d", users), func(t *testing.T) {
			cfg := cell.PaperConfig()
			cfg.Capacity = 100_000 // ≫ any slot's demand: no contention
			cfg.MaxSlots = 300
			lt, err := cell.CompileLink(cfg, monotoneSessions(t, users))
			if err != nil {
				t.Fatal(err)
			}
			cfg.Link = lt
			bounds, err := oracle.Compute(oracle.Config{
				Tau: cfg.Tau, Unit: cfg.Unit, Capacity: cfg.Capacity,
				Horizon: cfg.MaxSlots, Radio: cfg.Radio, RRC: cfg.RRC,
				AccountTail: true, Link: lt,
			}, monotoneSessions(t, users))
			if err != nil {
				t.Fatal(err)
			}
			prev := units.MJ(0)
			for ki, k := range []int{0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64} {
				p, err := sched.NewPredictive(sched.PredictiveConfig{Lookahead: k, Forecast: lt.Forecast()})
				if err != nil {
					t.Fatal(err)
				}
				_, total := predictiveRunTotal(t, cfg, monotoneSessions(t, users), p)
				if total < bounds.LowerMJ {
					t.Errorf("users %d K=%d: total %v below the oracle lower bound %v", users, k, total, bounds.LowerMJ)
				}
				if ki > 0 && total > prev {
					t.Errorf("users %d K=%d: total energy %v rose above the previous lookahead's %v — gap not monotone",
						users, k, total, prev)
				}
				prev = total
			}
		})
	}
}
