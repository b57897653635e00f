package experiments

import (
	"fmt"

	"jointstream/internal/cell"
	"jointstream/internal/oracle"
	"jointstream/internal/sched"
	"jointstream/internal/units"
)

// This file adds the lookahead sweep: the Predictive scheduler run
// against the scenario's compiled link table — exact or corrupted by
// the seeded cell.NoisyForecast error model — across a range of window
// depths K, bracketed by the offline oracle bounds. cmd/jstream-bench
// exposes it via -ext predictive.

// predictiveNoiseSeed decorrelates forecast corruption from workload
// generation: the same Options.Seed drives both, so the noise stream is
// salted before it reaches rng.Hash3.
const predictiveNoiseSeed = 0x666F7265 // "fore"

// predictiveBuilder keys a Predictive run by (K, errFrac) and builds
// the scheduler against the scenario's shared link table: errFrac 0
// reads the table exactly, anything else wraps it in the seeded noise
// model. Scenarios whose table exceeded the size cap cannot feed a
// forecast, so the builder rejects them rather than silently running
// myopic.
func (r *Runner) predictiveBuilder(k int, errFrac float64) schedBuilder {
	return schedBuilder{
		key: fmt.Sprintf("predictive(k=%d,err=%g)", k, errFrac),
		buildWith: func(sw *sharedWorkload) (sched.Scheduler, error) {
			if sw.link == nil {
				return nil, fmt.Errorf("experiments: predictive run needs a compiled link table (scenario exceeds the size cap)")
			}
			var f sched.Forecast
			if errFrac == 0 {
				f = sw.link.Forecast()
			} else {
				nf, err := cell.NewNoisyForecast(sw.link, r.opts.Seed^predictiveNoiseSeed, errFrac)
				if err != nil {
					return nil, err
				}
				f = nf
			}
			return sched.NewPredictive(sched.PredictiveConfig{Lookahead: k, Forecast: f})
		},
	}
}

// predictiveRun executes (or recalls) one Predictive simulation at the
// given lookahead and forecast-error level.
func (r *Runner) predictiveRun(sc scenario, k int, errFrac float64) (*cell.Result, error) {
	return r.run(sc, r.predictiveBuilder(k, errFrac))
}

// oracleBracket memoizes the tail-accounted oracle bounds for one
// scenario (the lookahead sweep evaluates one bracket against many K).
func (r *Runner) oracleBracket(sc scenario) (oracle.Bounds, error) {
	r.oracleMu.Lock()
	defer r.oracleMu.Unlock()
	key := fmt.Sprintf("n=%d|mb=%g", sc.users, sc.avgSizeMB)
	if b, ok := r.oracleCache[key]; ok {
		return b, nil
	}
	sw, err := r.workloadFor(sc)
	if err != nil {
		return oracle.Bounds{}, err
	}
	cfg := oracle.Config{
		Tau:         r.opts.Cell.Tau,
		Unit:        r.opts.Cell.Unit,
		Capacity:    r.opts.Cell.Capacity,
		Horizon:     r.opts.Cell.MaxSlots,
		Radio:       r.opts.Cell.Radio,
		RRC:         r.opts.Cell.RRC,
		AccountTail: true,
	}
	if sw.link != nil {
		cfg.Link = sw.link
	}
	b, err := oracle.Compute(cfg, sw.sessions)
	if err != nil {
		return oracle.Bounds{}, err
	}
	if r.oracleCache == nil {
		r.oracleCache = make(map[string]oracle.Bounds)
	}
	r.oracleCache[key] = b
	return b, nil
}

// predictiveLookaheads is the K axis of the sweep; the sentinel -1
// renders as the full horizon ("∞" — the forecast truncates at the
// table edge anyway).
var predictiveLookaheads = []int{0, 1, 5, 20, -1}

// predictiveErrLevels are the forecast corruption levels swept beside
// the exact table (relative error of the noise model).
var predictiveErrLevels = []float64{0, 0.3}

// ExtPredictive sweeps the Predictive scheduler's lookahead K at the
// CDF scenario, at the exact table and at each corrupted error level,
// against the RTMA (α=1) and EMA (β=1) baselines and the tail-accounted
// oracle bracket. K=0 is the myopic Default baseline by construction
// (the differential suite pins it byte-for-byte), so the leftmost point
// doubles as the Default reference.
func (r *Runner) ExtPredictive() (*Figure, error) {
	sc := scenario{users: r.opts.CDFUsers, avgSizeMB: r.opts.CDFAvgSizeMB}
	fullK := r.opts.Cell.MaxSlots
	fig := &Figure{
		ID:     "Ext. Predictive",
		Title:  "Lookahead-K predictive scheduling vs oracle bracket",
		XLabel: fmt.Sprintf("lookahead K (slots; %d = full horizon)", fullK),
		YLabel: "value per user",
		Notes: []string{
			fmt.Sprintf("N=%d users, avg video %.0f MB", sc.users, sc.avgSizeMB),
			"energy series are total (transmission + RRC tail) J/user",
			"oracle lower = capacity-relaxed transmission-only optimum; oracle upper = omniscient plan incl. replayed tail",
		},
	}

	bounds, err := r.oracleBracket(sc)
	if err != nil {
		return nil, err
	}
	if !bounds.Feasible {
		fig.Notes = append(fig.Notes, fmt.Sprintf("omniscient schedule infeasible within horizon %d", r.opts.Cell.MaxSlots))
	}
	rtma, err := r.rtmaRun(sc, 1.0)
	if err != nil {
		return nil, err
	}
	ema, _, err := r.emaRun(sc, 1.0)
	if err != nil {
		return nil, err
	}

	users := float64(sc.users)
	perUserJ := func(mj units.MJ) float64 { return float64(mj) / 1000 / users }
	xs := make([]float64, len(predictiveLookaheads))
	ks := make([]int, len(predictiveLookaheads))
	for i, k := range predictiveLookaheads {
		if k < 0 {
			k = fullK
		}
		ks[i] = k
		xs[i] = float64(k)
	}
	flat := func(label string, y float64) Series {
		s := Series{Label: label, X: xs, Y: make([]float64, len(xs))}
		for i := range s.Y {
			s.Y[i] = y
		}
		return s
	}
	fig.Series = append(fig.Series,
		flat("oracle lower (J)", perUserJ(bounds.LowerMJ)),
		flat("oracle upper (J)", perUserJ(bounds.UpperMJ)),
		flat("RTMA(alpha=1) energy (J)", float64(rtma.MeanEnergyPerUser())/1000),
		flat("EMA(beta=1) energy (J)", float64(ema.MeanEnergyPerUser())/1000),
	)

	for _, errFrac := range predictiveErrLevels {
		en := Series{Label: fmt.Sprintf("Predictive(err=%g) energy (J)", errFrac), X: xs}
		reb := Series{Label: fmt.Sprintf("Predictive(err=%g) rebuffer (s)", errFrac), X: xs}
		for i, k := range ks {
			res, err := r.predictiveRun(sc, k, errFrac)
			if err != nil {
				return nil, err
			}
			en.Y = append(en.Y, float64(res.MeanEnergyPerUser())/1000)
			reb.Y = append(reb.Y, float64(res.MeanRebufferPerUser()))
			if errFrac == 0 {
				var trans units.MJ
				for _, u := range res.Users {
					trans += u.TransEnergy
				}
				gap := 0.0
				if bounds.LowerMJ > 0 {
					gap = float64(trans-bounds.LowerMJ) / float64(bounds.LowerMJ)
				}
				fig.Notes = append(fig.Notes, fmt.Sprintf("K=%d: oracle gap %.1f%% (transmission energy vs lower bound)", predictiveK(predictiveLookaheads[i], fullK), gap*100))
			}
		}
		fig.Series = append(fig.Series, en, reb)
	}
	return fig, nil
}

// predictiveK renders the sweep's K axis value (the -1 sentinel is the
// full horizon).
func predictiveK(k, fullK int) int {
	if k < 0 {
		return fullK
	}
	return k
}
