package experiments

import (
	"fmt"
	"io"
	"math"
	"slices"

	"jointstream/internal/abr"
	"jointstream/internal/cell"
	"jointstream/internal/oracle"
	"jointstream/internal/radio"
	"jointstream/internal/rrc"
	"jointstream/internal/sched"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// This file holds the experiments beyond the paper's Figs. 2–10: the LTE
// variant the paper argues for in §III/§VI, variable-bit-rate and
// staggered-arrival workloads, adaptive-bitrate players, the Fast Dormancy
// ablation, the offline oracle energy gap for Theorem 1's E*, the online
// AdaptiveEMA, lookahead-K predictive scheduling and multi-seed robustness
// statistics. cmd/jstream-bench prints them with -ext.

// trio is the extensions' usual comparison: Default, RTMA (α = 1) and
// EMA (β = 1).
var trio = []arm{defaultArm, rtma("RTMA", 1), ema("EMA", 1)}

// A row is one series of a comparison: every arm measured by y on the
// runner on.
type row struct {
	label string
	on    *Runner
	y     metric
}

// compare draws an extension table at the CDF scenario with x the index of
// an arm.
func compare(fig Figure, arms []arm, rows ...row) (*Figure, error) {
	xs := make([]float64, len(arms))
	for i := range xs {
		xs[i] = float64(i)
	}
	for _, rw := range rows {
		s := Series{Label: rw.label, X: xs}
		for _, a := range arms {
			res, _, err := a.run(rw.on, rw.on.cdfScenario())
			if err != nil {
				return nil, err
			}
			y, err := rw.y(res)
			if err != nil {
				return nil, err
			}
			s.Y = append(s.Y, y)
		}
		fig.Series = append(fig.Series, s)
	}
	return &fig, nil
}

// shaped compares the trio on workloads that shape changes.
func (r *Runner) shaped(id, title string, shape func(*workload.Config)) (*Figure, error) {
	sub, err := r.sub(nil, shape)
	if err != nil {
		return nil, err
	}
	fig := Figure{ID: id, Title: title, XLabel: "algorithm (0=Default 1=RTMA 2=EMA)", YLabel: "value",
		Notes: []string{r.scenarioNote()}}
	return compare(fig, trio, row{"rebuffer/user (s)", sub, rebuffer}, row{"energy/user (J)", sub, energyJ})
}

// extensions are the extension figures in -ext's order; the multi-seed
// table, "seeds", follows them (Extension).
var extensions = []figure{
	// The paper (§VI) predicts "similar results in LTE networks".
	{"lte", func(r *Runner) (*Figure, error) {
		g3, err := r.sub(func(o *Options) { o.Cell.Radio, o.Cell.RRC = radio.Paper3G(), rrc.Paper3G() }, nil)
		if err != nil {
			return nil, err
		}
		lte, err := r.sub(func(o *Options) { o.Cell.Radio, o.Cell.RRC = radio.LTE(), rrc.LTE() }, nil)
		if err != nil {
			return nil, err
		}
		fig := Figure{ID: "Ext. LTE", Title: "3G vs LTE (Default / RTMA / EMA)", XLabel: "metric", YLabel: "value",
			Notes: []string{"rows: rebuffer/user (s) then energy/user (J)", r.scenarioNote(),
				"x: 0=Default, 1=RTMA(alpha=1), 2=EMA(beta=1)"}}
		return compare(fig, trio,
			row{"3G rebuffer", g3, rebuffer}, row{"3G energy", g3, energyJ},
			row{"LTE rebuffer", lte, rebuffer}, row{"LTE energy", lte, energyJ})
	}},
	// The paper's "bit rate changes over time" model: ±30 % per-slot jitter.
	{"vbr", func(r *Runner) (*Figure, error) {
		return r.shaped("Ext. VBR", "VBR sessions (±30% rate jitter)", func(c *workload.Config) { c.RateJitterFrac = 0.3 })
	}},
	// Poisson arrivals instead of the paper's all-at-slot-0 start.
	{"arrivals", func(r *Runner) (*Figure, error) {
		return r.shaped("Ext. Arrivals", "Poisson arrivals (mean 10 s)", func(c *workload.Config) { c.MeanInterarrival = 10 })
	}},
	// How much energy 3GPP Fast Dormancy (release after 0.5 s idle), the
	// lever RadioJockey/TOP pull, would recover; EMA avoids idle gaps.
	{"dormancy", func(r *Runner) (*Figure, error) {
		fd, err := r.sub(func(o *Options) { o.Cell.RRC = o.Cell.RRC.WithFastDormancy(0.5) }, nil)
		if err != nil {
			return nil, err
		}
		fig := Figure{ID: "Ext. FastDormancy", Title: "Energy with vs without Fast Dormancy (release after 0.5 s)",
			XLabel: "algorithm (0=Default 1=ON-OFF 2=EStreamer 3=EMA)", YLabel: "energy/user (J)"}
		return compare(fig, []arm{defaultArm, onoff, estreamer, ema("EMA", 1)},
			row{"normal", r, energyJ}, row{"fast dormancy", fd, energyJ})
	}},
	{"oracle", (*Runner).oracleGap},
	{"abr", (*Runner).abrFig},
	// The offline-calibrated EMA against the online AdaptiveEMA, both at
	// Ω = R_Default: what the controller pays for not knowing V in advance.
	{"adaptive", func(r *Runner) (*Figure, error) {
		cal := ema("EMA", 1)
		fig := Figure{ID: "Ext. Adaptive", Title: "Calibrated EMA vs online AdaptiveEMA (Omega = Default rebuffering)",
			XLabel: "users", YLabel: "value"}
		return r.sweep(fig, overUsers,
			curve{arm: cal.as("EMA rebuffer (s)"), y: rebuffer},
			curve{arm: adaptiveEMA.as("AdaptiveEMA rebuffer (s)"), y: rebuffer},
			curve{arm: cal.as("EMA energy (J)"), y: energyJ},
			curve{arm: adaptiveEMA.as("AdaptiveEMA energy (J)"), y: energyJ})
	}},
	{"predictive", (*Runner).predictiveFig},
}

// adaptiveEMA is the online AdaptiveEMA at Ω = R_Default: it discovers V
// during the run instead of by pilot bisection.
var adaptiveEMA = arm{"AdaptiveEMA", func(r *Runner, sc scenario) (*cell.Result, float64, error) {
	def, err := r.defaultRun(sc)
	if err != nil {
		return nil, 0, err
	}
	omega := def.PC()
	res, err := r.run(sc, schedBuilder{
		key: fmt.Sprintf("adaptive-ema(omega=%.6g)", float64(omega)),
		build: func() (sched.Scheduler, error) {
			return sched.NewAdaptiveEMA(sched.AdaptiveEMAConfig{Omega: omega, RRC: r.opts.Cell.RRC})
		},
	})
	return res, 0, err
}}

// abrFig runs the trio with adaptive-bitrate players (BBA controllers,
// internal/abr) instead of fixed-rate sessions, reporting mean delivered
// quality and QoE beside stalls and energy. The paper's model fixes p_i;
// this answers how the schedulers interact with the rate adaptation its
// introduction motivates.
func (r *Runner) abrFig() (*Figure, error) {
	cfg := abr.DefaultConfig()
	sub, err := r.sub(func(o *Options) { o.Cell.ABR = &cfg }, nil)
	if err != nil {
		return nil, err
	}
	// RTMA's Eq. (12) budget reflects radio economics, not player
	// behaviour: with ABR's buffer cap the Default run paces near the
	// selected bitrate, so its per-active-slot energy sits far below the
	// physical Eq. (12) band and would derive an admit-nobody threshold.
	// Use the fixed-rate reference run's energy instead (same radio, same
	// workload scale).
	fixedRTMA := arm{"RTMA", func(sub *Runner, sc scenario) (*cell.Result, float64, error) {
		sb, _, err := r.rtmaBuilder(sc, 1)
		if err != nil {
			return nil, 0, err
		}
		sb.key = "rtma(abr)"
		res, err := sub.run(sc, sb)
		return res, 0, err
	}}
	fig := Figure{ID: "Ext. ABR", Title: "Adaptive-bitrate players (BBA) under each scheduler",
		XLabel: "algorithm (0=Default 1=RTMA 2=EMA)", YLabel: "value",
		Notes: []string{fmt.Sprintf("%s, ladder %v-%v KB/s", r.scenarioNote(),
			float64(cfg.Ladder.Min()), float64(cfg.Ladder.Max()))}}
	return compare(fig, []arm{defaultArm, fixedRTMA, ema("EMA", 1)},
		row{"rebuffer/user (s)", sub, rebuffer}, row{"energy/user (J)", sub, energyJ},
		row{"mean quality (KB/s)", sub, func(res *cell.Result) (float64, error) {
			var qs float64
			for _, u := range res.Users {
				qs += float64(u.MeanQuality())
			}
			return qs / float64(len(res.Users)), nil
		}},
		row{"mean QoE (MPC model)", sub, mpcQoE(r.opts.Cell.Tau)})
}

// The weights of the linear MPC QoE model (Yin et al., SIGCOMM 2015):
// quality counts in units of the reference rate per played slot, a
// quality switch costs one unit, a stalled second 3 and a second of
// startup delay 1.5.
const (
	qoeRefRateKBps = 450
	qoeSwitch      = 1
	qoeStall       = 3
	qoeStartup     = 1.5
)

// mpcQoE is the users' mean score under the MPC model,
//
//	QoE = Σ q(R_k) − λ·switches − μ·T_rebuffer − μs·T_startup,
//
// the other QoE components the schedulers trade beside the paper's stall
// term. The paper's model stalls every session's first slot (a shard is
// playable one slot after it lands), so one slot of any rebuffering is
// the startup delay.
func mpcQoE(tau units.Seconds) metric {
	return func(res *cell.Result) (float64, error) {
		var sum float64
		for _, u := range res.Users {
			startup, reb := units.Seconds(0), u.Rebuffer
			if reb >= tau {
				startup, reb = tau, reb-tau
			}
			quality := float64(u.MeanQuality()) / qoeRefRateKBps * float64(u.QualitySlots)
			sum += quality -
				qoeSwitch*float64(u.QualitySwitches) -
				qoeStall*float64(reb) -
				qoeStartup*float64(startup)
		}
		return sum / float64(len(res.Users)), nil
	}
}

// transMJ is a run's transmission energy, without the RRC tail.
func transMJ(res *cell.Result) units.MJ {
	var trans units.MJ
	for _, u := range res.Users {
		trans += u.TransEnergy
	}
	return trans
}

// oracleGap brackets Theorem 1's E* with the offline oracle bounds of
// internal/oracle and places EMA's measured transmission energy inside
// the bracket, across the user sweep.
func (r *Runner) oracleGap() (*Figure, error) {
	fig := &Figure{
		ID:     "Ext. OracleGap",
		Title:  "EMA vs offline oracle energy bounds (transmission energy)",
		XLabel: "users",
		YLabel: "transmission energy per user (J)",
		Notes: []string{
			"lower = capacity-relaxed offline optimum (no schedule can beat it)",
			"upper = omniscient greedy feasible schedule",
		},
	}
	lower, emaS, upper := Series{Label: "oracle lower"}, Series{Label: "EMA (measured)"}, Series{Label: "oracle upper"}
	for _, n := range r.opts.UserCounts {
		sc := scenario{users: n, avgSizeMB: r.opts.CDFAvgSizeMB}
		em, _, err := ema("EMA", 1).run(r, sc)
		if err != nil {
			return nil, err
		}
		sw, err := r.workloadFor(sc)
		if err != nil {
			return nil, err
		}
		// Use the realized horizon so the oracle sees the same slots.
		b, err := oracle.Compute(oracle.Config{
			Tau:      r.opts.Cell.Tau,
			Unit:     r.opts.Cell.Unit,
			Capacity: r.opts.Cell.Capacity,
			Horizon:  em.Slots,
			Radio:    r.opts.Cell.Radio,
			Link:     sw.link,
		}, sw.sessions)
		if err != nil {
			return nil, err
		}
		x, perUser := float64(n), func(mj units.MJ) float64 { return float64(mj) / 1000 / float64(n) }
		lower.X = append(lower.X, x)
		lower.Y = append(lower.Y, perUser(b.LowerMJ))
		upper.X = append(upper.X, x)
		upper.Y = append(upper.Y, perUser(b.UpperMJ))
		emaS.X = append(emaS.X, x)
		emaS.Y = append(emaS.Y, perUser(transMJ(em)))
		if !b.Feasible {
			fig.Notes = append(fig.Notes, fmt.Sprintf("N=%d: omniscient schedule infeasible within horizon %d", n, em.Slots))
		}
	}
	fig.Series = append(fig.Series, lower, emaS, upper)
	return fig, nil
}

// predictiveNoiseSeed decorrelates forecast corruption from workload
// generation: the same Options.Seed drives both, so the noise stream is
// salted before it reaches rng.Hash3.
const predictiveNoiseSeed = 0x666F7265 // "fore"

// predictiveBuilder keys a Predictive run by (K, errFrac) and builds
// the scheduler against the scenario's shared link table: errFrac 0
// reads the table exactly, anything else wraps it in the seeded noise
// model.
func (r *Runner) predictiveBuilder(k int, errFrac float64) schedBuilder {
	return schedBuilder{
		key: fmt.Sprintf("predictive(k=%d,err=%g)", k, errFrac),
		buildWith: func(sw *sharedWorkload) (sched.Scheduler, error) {
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

// oracleBracket memoizes the tail-accounted oracle bounds for one
// scenario (the lookahead sweep evaluates one bracket against many K).
func (r *Runner) oracleBracket(sc scenario) (oracle.Bounds, error) {
	return r.brackets.get(sc.workloadKey(), func() (oracle.Bounds, error) {
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
			Link:        sw.link,
		}
		return oracle.Compute(cfg, sw.sessions)
	})
}

// predictiveLookaheads is the K axis of the lookahead sweep; the sentinel
// -1 is the full horizon (the forecast truncates at the table edge anyway).
var predictiveLookaheads = []int{0, 1, 5, 20, -1}

// predictiveErrLevels are the forecast corruption levels swept beside
// the exact table (relative error of the noise model).
var predictiveErrLevels = []float64{0, 0.3}

// predictiveFig sweeps the Predictive scheduler's lookahead K at the CDF
// scenario, at the exact table and at each corrupted error level, against
// the RTMA (α=1) and EMA (β=1) baselines and the tail-accounted oracle
// bracket. K=0 is the myopic Default baseline by construction (the
// differential suite pins it byte-for-byte), so the leftmost point
// doubles as the Default reference.
func (r *Runner) predictiveFig() (*Figure, error) {
	sc := r.cdfScenario()
	fullK := r.opts.Cell.MaxSlots
	fig := &Figure{
		ID:     "Ext. Predictive",
		Title:  "Lookahead-K predictive scheduling vs oracle bracket",
		XLabel: fmt.Sprintf("lookahead K (slots; %d = full horizon)", fullK),
		YLabel: "value per user",
		Notes: []string{
			r.scenarioNote(),
			"energy series are total (transmission + RRC tail) J/user",
			"oracle lower = capacity-relaxed transmission-only optimum; oracle upper = omniscient plan incl. replayed tail",
		},
	}
	bounds, err := r.oracleBracket(sc)
	if err != nil {
		return nil, err
	}
	if !bounds.Feasible {
		fig.Notes = append(fig.Notes, fmt.Sprintf("omniscient schedule infeasible within horizon %d", fullK))
	}
	perUserJ := func(mj units.MJ) float64 { return float64(mj) / 1000 / float64(sc.users) }
	xs := make([]float64, len(predictiveLookaheads))
	ks := make([]int, len(predictiveLookaheads))
	for i, k := range predictiveLookaheads {
		if k < 0 {
			k = fullK
		}
		ks[i] = k
		xs[i] = float64(k)
	}
	flat := func(label string, y float64) {
		s := Series{Label: label, X: xs, Y: make([]float64, len(xs))}
		for i := range s.Y {
			s.Y[i] = y
		}
		fig.Series = append(fig.Series, s)
	}
	flat("oracle lower (J)", perUserJ(bounds.LowerMJ))
	flat("oracle upper (J)", perUserJ(bounds.UpperMJ))
	for _, a := range []arm{rtma("RTMA(alpha=1) energy (J)", 1), ema("EMA(beta=1) energy (J)", 1)} {
		res, _, err := a.run(r, sc)
		if err != nil {
			return nil, err
		}
		flat(a.label, float64(res.MeanEnergyPerUser())/1000)
	}
	for _, errFrac := range predictiveErrLevels {
		en := Series{Label: fmt.Sprintf("Predictive(err=%g) energy (J)", errFrac), X: xs}
		reb := Series{Label: fmt.Sprintf("Predictive(err=%g) rebuffer (s)", errFrac), X: xs}
		for _, k := range ks {
			res, err := r.run(sc, r.predictiveBuilder(k, errFrac))
			if err != nil {
				return nil, err
			}
			en.Y = append(en.Y, float64(res.MeanEnergyPerUser())/1000)
			reb.Y = append(reb.Y, float64(res.MeanRebufferPerUser()))
			if errFrac == 0 {
				gap := 0.0
				if bounds.LowerMJ > 0 {
					gap = float64(transMJ(res)-bounds.LowerMJ) / float64(bounds.LowerMJ)
				}
				fig.Notes = append(fig.Notes, fmt.Sprintf("K=%d: oracle gap %.1f%% (transmission energy vs lower bound)", k, gap*100))
			}
		}
		fig.Series = append(fig.Series, en, reb)
	}
	return fig, nil
}

// seedStats is the multi-seed summary of one scheduler at one scenario.
type seedStats struct {
	label                     string
	seeds                     int
	rebufferMean, rebufferStd float64 // seconds per user
	energyMean, energyStd     float64 // joules per user
	// rebufferP and energyP are Welch two-sided p-values against the
	// Default strategy's per-seed samples (1 for Default itself).
	rebufferP, energyP float64
}

// multiSeed reruns the trio at the CDF scenario across seeds workload
// seeds and reports mean ± std of both metrics — the robustness check the
// single-seed paper omits.
func (r *Runner) multiSeed(seeds int) ([]seedStats, error) {
	if seeds < 2 {
		return nil, fmt.Errorf("experiments: need at least 2 seeds, got %d", seeds)
	}
	reb, en := make([][]float64, len(trio)), make([][]float64, len(trio))
	for s := 0; s < seeds; s++ {
		sub, err := r.sub(func(o *Options) { o.Seed = r.opts.Seed + uint64(s)*1000003 }, nil)
		if err != nil {
			return nil, err
		}
		for i, a := range trio {
			res, _, err := a.run(sub, sub.cdfScenario())
			if err != nil {
				return nil, err
			}
			reb[i] = append(reb[i], float64(res.MeanRebufferPerUser()))
			en[i] = append(en[i], float64(res.MeanEnergyPerUser())/1000)
		}
	}
	out := make([]seedStats, len(trio))
	for i, a := range trio {
		st := seedStats{label: a.label, seeds: seeds, rebufferP: 1, energyP: 1}
		st.rebufferMean, st.rebufferStd = meanStd(reb[i])
		st.energyMean, st.energyStd = meanStd(en[i])
		if i > 0 {
			if p, err := welchP(reb[i], reb[0]); err == nil {
				st.rebufferP = p
			}
			if p, err := welchP(en[i], en[0]); err == nil {
				st.energyP = p
			}
		}
		out[i] = st
	}
	return out, nil
}

// welchP runs Welch's unequal-variance t-test on two samples and returns
// the two-sided p-value: is the difference of their means distinguishable
// from seed noise?
func welchP(a, b []float64) (float64, error) {
	meanA, varA, err := describe(a)
	if err != nil {
		return 0, err
	}
	meanB, varB, err := describe(b)
	if err != nil {
		return 0, err
	}
	va := varA / float64(len(a))
	vb := varB / float64(len(b))
	se := math.Sqrt(va + vb)
	if se == 0 {
		// Two constants: equal means show no difference, unequal ones a
		// deterministic one.
		if meanA == meanB {
			return 1, nil
		}
		return 0, nil
	}
	t := (meanA - meanB) / se
	df := (va + vb) * (va + vb) /
		(va*va/float64(len(a)-1) + vb*vb/float64(len(b)-1))
	return 2 * studentTail(math.Abs(t), df), nil
}

// describe returns the mean and the unbiased (n−1) variance of xs, which
// needs two finite observations.
func describe(xs []float64) (mean, variance float64, err error) {
	if len(xs) < 2 {
		return 0, 0, fmt.Errorf("experiments: need at least 2 observations, got %d", len(xs))
	}
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0, 0, fmt.Errorf("experiments: non-finite observation %v", x)
		}
		mean += x
	}
	mean /= float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, ss / float64(len(xs)-1), nil
}

// studentTail returns P(T > t) for Student's t with df degrees of freedom,
// via the regularized incomplete beta function:
// P(T > t) = ½ I_{df/(df+t²)}(df/2, ½).
func studentTail(t, df float64) float64 {
	if t <= 0 {
		return 0.5
	}
	x := df / (df + t*t)
	return 0.5 * regIncBeta(df/2, 0.5, x)
}

// regIncBeta computes the regularized incomplete beta function I_x(a, b)
// using the continued-fraction expansion (Numerical Recipes betacf).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lgamma := func(x float64) float64 {
		v, _ := math.Lgamma(x)
		return v
	}
	front := math.Exp(lgamma(a+b) - lgamma(a) - lgamma(b) + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betacf(a, b, x) / a
	}
	return 1 - front*betacf(b, a, 1-x)/b
}

// betacf evaluates the continued fraction for the incomplete beta
// function by the modified Lentz method.
func betacf(a, b, x float64) float64 {
	const (
		maxIter = 200
		eps     = 3e-14
		fpmin   = 1e-300
	)
	// floor keeps a Lentz denominator off zero.
	floor := func(v float64) float64 {
		if math.Abs(v) < fpmin {
			return fpmin
		}
		return v
	}
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 / floor(1-qab*x/qap)
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := 2 * m
		aa := float64(m) * (b - float64(m)) * x / ((qam + float64(m2)) * (a + float64(m2)))
		d = 1 / floor(1+aa*d)
		c = floor(1 + aa/c)
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + float64(m2)) * (qap + float64(m2)))
		d = 1 / floor(1+aa*d)
		c = floor(1 + aa/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

func meanStd(xs []float64) (mean, std float64) {
	n := float64(len(xs))
	for _, x := range xs {
		mean += x
	}
	mean /= n
	for _, x := range xs {
		d := x - mean
		std += d * d
	}
	return mean, math.Sqrt(std / n)
}

// Extension writes the extension called name as text: one of the
// extension figures, "seeds", the multi-seed table over seeds workload
// seeds, or "all", every one of them in that order, each under an
// "== ext:NAME ==" line.
func (r *Runner) Extension(w io.Writer, name string, seeds int) error {
	switch name {
	case "all":
		for i, f := range slices.Concat(extensions, []figure{{name: "seeds"}}) {
			sep := "\n"
			if i == 0 {
				sep = ""
			}
			if _, err := fmt.Fprintf(w, "%s== ext:%s ==\n", sep, f.name); err != nil {
				return err
			}
			if err := r.Extension(w, f.name, seeds); err != nil {
				return err
			}
		}
		return nil
	case "seeds":
		stats, err := r.multiSeed(seeds)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "Multi-seed robustness (%d seeds):\n", seeds); err != nil {
			return err
		}
		return renderSeedStats(w, stats)
	}
	fig, err := r.lookup(extensions, "extension", name, "seeds", "all")
	if err != nil {
		return err
	}
	return Render(w, fig)
}
