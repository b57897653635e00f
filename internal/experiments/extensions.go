package experiments

import (
	"fmt"
	"math"

	"jointstream/internal/abr"
	"jointstream/internal/cell"
	"jointstream/internal/oracle"
	"jointstream/internal/qoe"
	"jointstream/internal/radio"
	"jointstream/internal/rng"
	"jointstream/internal/rrc"
	"jointstream/internal/sched"
	"jointstream/internal/stats"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// This file contains extension experiments beyond the paper's Figs. 2–10:
// the LTE variant the paper argues for in §III/§VI, variable-bit-rate and
// staggered-arrival workloads, the Fast Dormancy ablation, the offline
// oracle energy gap for Theorem 1's E*, and multi-seed robustness
// statistics. cmd/jstream-bench exposes them via -ext.

// subRunner clones this runner with a modified configuration; the clone
// has its own memoization cache.
func (r *Runner) subRunner(mutate func(*Options)) (*Runner, error) {
	opts := r.opts
	mutate(&opts)
	return NewRunner(opts)
}

// ExtLTE compares Default, RTMA (α=1) and EMA (β=1) under the LTE radio
// and RRC models against the 3G baseline, at the CDF scenario. The paper
// (§VI) predicts "similar results in LTE networks".
func (r *Runner) ExtLTE() (*Figure, error) {
	fig := &Figure{
		ID:     "Ext. LTE",
		Title:  "3G vs LTE (Default / RTMA / EMA)",
		XLabel: "metric",
		YLabel: "value",
		Notes: []string{
			"rows: rebuffer/user (s) then energy/user (J)",
			fmt.Sprintf("N=%d users, avg video %.0f MB", r.opts.CDFUsers, r.opts.CDFAvgSizeMB),
		},
	}
	configs := []struct {
		label string
		radio radio.Model
		rrc   rrc.Profile
	}{
		{"3G", radio.Paper3G(), rrc.Paper3G()},
		{"LTE", radio.LTE(), rrc.LTE()},
	}
	sc := scenario{users: r.opts.CDFUsers, avgSizeMB: r.opts.CDFAvgSizeMB}
	for _, c := range configs {
		sub, err := r.subRunner(func(o *Options) {
			o.Cell.Radio = c.radio
			o.Cell.RRC = c.rrc
		})
		if err != nil {
			return nil, err
		}
		def, err := sub.defaultRun(sc)
		if err != nil {
			return nil, err
		}
		rtma, err := sub.rtmaRun(sc, 1.0)
		if err != nil {
			return nil, err
		}
		ema, _, err := sub.emaRun(sc, 1.0)
		if err != nil {
			return nil, err
		}
		reb := Series{Label: c.label + " rebuffer", X: []float64{0, 1, 2}}
		en := Series{Label: c.label + " energy", X: []float64{0, 1, 2}}
		for _, res := range []*cell.Result{def, rtma, ema} {
			reb.Y = append(reb.Y, float64(res.MeanRebufferPerUser()))
			en.Y = append(en.Y, float64(res.MeanEnergyPerUser())/1000)
		}
		fig.Series = append(fig.Series, reb, en)
	}
	fig.Notes = append(fig.Notes, "x: 0=Default, 1=RTMA(alpha=1), 2=EMA(beta=1)")
	return fig, nil
}

// ExtVBR repeats the Fig. 5a/9a style comparison with variable-bit-rate
// sessions (±30 % per-slot rate jitter), checking the algorithms tolerate
// the paper's "bit rate changes over time" model.
func (r *Runner) ExtVBR() (*Figure, error) {
	sub, err := r.subRunner(func(o *Options) { o.RateJitterFrac = 0.3 })
	if err != nil {
		return nil, err
	}
	return sub.comparisonAtScenario("Ext. VBR", "VBR sessions (±30% rate jitter)")
}

// ExtArrivals repeats the comparison with Poisson user arrivals (mean
// interarrival 10 s) instead of the paper's all-at-slot-0 start.
func (r *Runner) ExtArrivals() (*Figure, error) {
	sub, err := r.subRunner(func(o *Options) { o.MeanInterarrival = 10 })
	if err != nil {
		return nil, err
	}
	return sub.comparisonAtScenario("Ext. Arrivals", "Poisson arrivals (mean 10 s)")
}

// comparisonAtScenario runs Default/RTMA/EMA at the CDF scenario and
// reports both metrics.
func (r *Runner) comparisonAtScenario(id, title string) (*Figure, error) {
	sc := scenario{users: r.opts.CDFUsers, avgSizeMB: r.opts.CDFAvgSizeMB}
	def, err := r.defaultRun(sc)
	if err != nil {
		return nil, err
	}
	rtma, err := r.rtmaRun(sc, 1.0)
	if err != nil {
		return nil, err
	}
	ema, _, err := r.emaRun(sc, 1.0)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: id, Title: title,
		XLabel: "algorithm (0=Default 1=RTMA 2=EMA)",
		YLabel: "value",
		Notes:  []string{fmt.Sprintf("N=%d users, avg video %.0f MB", sc.users, sc.avgSizeMB)},
	}
	reb := Series{Label: "rebuffer/user (s)", X: []float64{0, 1, 2}}
	en := Series{Label: "energy/user (J)", X: []float64{0, 1, 2}}
	for _, res := range []*cell.Result{def, rtma, ema} {
		reb.Y = append(reb.Y, float64(res.MeanRebufferPerUser()))
		en.Y = append(en.Y, float64(res.MeanEnergyPerUser())/1000)
	}
	fig.Series = append(fig.Series, reb, en)
	return fig, nil
}

// ExtABR repeats the Default/RTMA/EMA comparison with adaptive-bitrate
// players (BBA controllers, internal/abr) instead of fixed-rate sessions,
// reporting mean delivered quality alongside stalls and energy. The
// paper's model fixes p_i; this answers how the gateway schedulers
// interact with the rate adaptation its introduction motivates.
func (r *Runner) ExtABR() (*Figure, error) {
	abrCfg := abr.DefaultConfig()
	sub, err := r.subRunner(func(o *Options) { o.Cell.ABR = &abrCfg })
	if err != nil {
		return nil, err
	}
	sc := scenario{users: sub.opts.CDFUsers, avgSizeMB: sub.opts.CDFAvgSizeMB}
	def, err := sub.defaultRun(sc)
	if err != nil {
		return nil, err
	}
	// RTMA's Eq. (12) budget reflects radio economics, not player
	// behaviour: with ABR's buffer cap the Default run paces near the
	// selected bitrate, so its per-active-slot energy sits far below the
	// physical Eq. (12) band and would derive an admit-nobody threshold.
	// Use the fixed-rate reference run's energy instead (same radio, same
	// workload scale).
	fixedDef, err := r.defaultRun(scenario{users: sc.users, avgSizeMB: sc.avgSizeMB})
	if err != nil {
		return nil, err
	}
	budget, err := sched.BudgetForAlpha(fixedDef.TransEnergyPerActiveSlot(), 1.0)
	if err != nil {
		return nil, err
	}
	rtma, err := sub.run(sc, schedBuilder{
		key: "rtma(abr)",
		build: func() (sched.Scheduler, error) {
			return sched.NewRTMA(sched.RTMAConfig{
				Budget: budget, Radio: sub.opts.Cell.Radio, RRC: sub.opts.Cell.RRC,
			})
		},
	})
	if err != nil {
		return nil, err
	}
	ema, _, err := sub.emaRun(sc, 1.0)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "Ext. ABR",
		Title:  "Adaptive-bitrate players (BBA) under each scheduler",
		XLabel: "algorithm (0=Default 1=RTMA 2=EMA)",
		YLabel: "value",
		Notes: []string{
			fmt.Sprintf("N=%d users, avg video %.0f MB, ladder %v-%v KB/s",
				sc.users, sc.avgSizeMB, float64(abrCfg.Ladder.Min()), float64(abrCfg.Ladder.Max())),
		},
	}
	reb := Series{Label: "rebuffer/user (s)", X: []float64{0, 1, 2}}
	en := Series{Label: "energy/user (J)", X: []float64{0, 1, 2}}
	q := Series{Label: "mean quality (KB/s)", X: []float64{0, 1, 2}}
	qoeS := Series{Label: "mean QoE (MPC model)", X: []float64{0, 1, 2}}
	weights := qoe.DefaultWeights(450)
	for _, res := range []*cell.Result{def, rtma, ema} {
		reb.Y = append(reb.Y, float64(res.MeanRebufferPerUser()))
		en.Y = append(en.Y, float64(res.MeanEnergyPerUser())/1000)
		var qs float64
		for _, u := range res.Users {
			qs += float64(u.MeanQuality())
		}
		q.Y = append(q.Y, qs/float64(len(res.Users)))
		score, err := qoe.MeanScore(weights, res, sub.opts.Cell.Tau)
		if err != nil {
			return nil, err
		}
		qoeS.Y = append(qoeS.Y, score)
	}
	fig.Series = append(fig.Series, reb, en, q, qoeS)
	return fig, nil
}

// ExtFastDormancy measures how much of each scheduler's energy the 3GPP
// Fast Dormancy mechanism (release after 0.5 s idle) would recover —
// the lever RadioJockey/TOP pull, which the paper's EMA makes largely
// unnecessary by avoiding idle gaps altogether.
func (r *Runner) ExtFastDormancy() (*Figure, error) {
	sc := scenario{users: r.opts.CDFUsers, avgSizeMB: r.opts.CDFAvgSizeMB}
	fig := &Figure{
		ID:     "Ext. FastDormancy",
		Title:  "Energy with vs without Fast Dormancy (release after 0.5 s)",
		XLabel: "algorithm (0=Default 1=ON-OFF 2=EStreamer 3=EMA)",
		YLabel: "energy/user (J)",
	}
	fdSub, err := r.subRunner(func(o *Options) {
		o.Cell.RRC = o.Cell.RRC.WithFastDormancy(0.5)
	})
	if err != nil {
		return nil, err
	}
	collect := func(sub *Runner, label string) error {
		s := Series{Label: label, X: []float64{0, 1, 2, 3}}
		def, err := sub.defaultRun(sc)
		if err != nil {
			return err
		}
		onoff, err := sub.run(sc, baselineBuilder("onoff"))
		if err != nil {
			return err
		}
		estr, err := sub.run(sc, baselineBuilder("estreamer"))
		if err != nil {
			return err
		}
		ema, _, err := sub.emaRun(sc, 1.0)
		if err != nil {
			return err
		}
		for _, res := range []*cell.Result{def, onoff, estr, ema} {
			s.Y = append(s.Y, float64(res.MeanEnergyPerUser())/1000)
		}
		fig.Series = append(fig.Series, s)
		return nil
	}
	if err := collect(r, "normal"); err != nil {
		return nil, err
	}
	if err := collect(fdSub, "fast dormancy"); err != nil {
		return nil, err
	}
	return fig, nil
}

// ExtOracleGap brackets Theorem 1's E* with the offline oracle bounds of
// internal/oracle and places EMA's measured transmission energy inside
// the bracket, across the user sweep.
func (r *Runner) ExtOracleGap() (*Figure, error) {
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
	lower := Series{Label: "oracle lower"}
	upper := Series{Label: "oracle upper"}
	emaS := Series{Label: "EMA (measured)"}
	for _, n := range r.opts.UserCounts {
		sc := scenario{users: n, avgSizeMB: r.opts.CDFAvgSizeMB}
		ema, _, err := r.emaRun(sc, 1.0)
		if err != nil {
			return nil, err
		}
		// Use the realized horizon so the oracle sees the same slots.
		wl, err := workload.Generate(sc.workload(r.opts), rng.New(r.opts.Seed))
		if err != nil {
			return nil, err
		}
		b, err := oracle.Compute(oracle.Config{
			Tau:      r.opts.Cell.Tau,
			Unit:     r.opts.Cell.Unit,
			Capacity: r.opts.Cell.Capacity,
			Horizon:  ema.Slots,
			Radio:    r.opts.Cell.Radio,
		}, wl)
		if err != nil {
			return nil, err
		}
		var trans units.MJ
		for _, u := range ema.Users {
			trans += u.TransEnergy
		}
		x := float64(n)
		lower.X = append(lower.X, x)
		lower.Y = append(lower.Y, float64(b.LowerMJ)/1000/float64(n))
		upper.X = append(upper.X, x)
		upper.Y = append(upper.Y, float64(b.UpperMJ)/1000/float64(n))
		emaS.X = append(emaS.X, x)
		emaS.Y = append(emaS.Y, float64(trans)/1000/float64(n))
		if !b.Feasible {
			fig.Notes = append(fig.Notes, fmt.Sprintf("N=%d: omniscient schedule infeasible within horizon %d", n, ema.Slots))
		}
	}
	fig.Series = append(fig.Series, lower, emaS, upper)
	return fig, nil
}

// ExtAdaptive compares the offline-calibrated EMA against the online
// AdaptiveEMA across the user sweep: both target the same Ω = R_Default,
// but AdaptiveEMA discovers its V during the run instead of via pilot
// bisection. The comparison quantifies what the online controller pays
// for not knowing V in advance.
func (r *Runner) ExtAdaptive() (*Figure, error) {
	fig := &Figure{
		ID:     "Ext. Adaptive",
		Title:  "Calibrated EMA vs online AdaptiveEMA (Omega = Default rebuffering)",
		XLabel: "users",
		YLabel: "value",
	}
	calReb := Series{Label: "EMA rebuffer (s)"}
	calEn := Series{Label: "EMA energy (J)"}
	adReb := Series{Label: "AdaptiveEMA rebuffer (s)"}
	adEn := Series{Label: "AdaptiveEMA energy (J)"}
	for _, n := range r.opts.UserCounts {
		sc := scenario{users: n, avgSizeMB: r.opts.CDFAvgSizeMB}
		def, err := r.defaultRun(sc)
		if err != nil {
			return nil, err
		}
		omega := def.PC()
		cal, _, err := r.emaRun(sc, 1.0)
		if err != nil {
			return nil, err
		}
		ad, err := r.run(sc, schedBuilder{
			key: fmt.Sprintf("adaptive-ema(omega=%.6g)", float64(omega)),
			build: func() (sched.Scheduler, error) {
				return sched.NewAdaptiveEMA(sched.AdaptiveEMAConfig{
					Omega: omega, RRC: r.opts.Cell.RRC,
				})
			},
		})
		if err != nil {
			return nil, err
		}
		x := float64(n)
		calReb.X = append(calReb.X, x)
		calReb.Y = append(calReb.Y, float64(cal.MeanRebufferPerUser()))
		calEn.X = append(calEn.X, x)
		calEn.Y = append(calEn.Y, float64(cal.MeanEnergyPerUser())/1000)
		adReb.X = append(adReb.X, x)
		adReb.Y = append(adReb.Y, float64(ad.MeanRebufferPerUser()))
		adEn.X = append(adEn.X, x)
		adEn.Y = append(adEn.Y, float64(ad.MeanEnergyPerUser())/1000)
	}
	fig.Series = append(fig.Series, calReb, adReb, calEn, adEn)
	return fig, nil
}

// SeedStats is the multi-seed summary of one scheduler at one scenario.
type SeedStats struct {
	Label                     string
	Seeds                     int
	RebufferMean, RebufferStd float64 // seconds per user
	EnergyMean, EnergyStd     float64 // joules per user
	// RebufferP and EnergyP are Welch two-sided p-values against the
	// Default strategy's per-seed samples (1 for Default itself).
	RebufferP, EnergyP float64
}

// ExtMultiSeed reruns Default, RTMA (α=1) and EMA (β=1) at the CDF
// scenario across `seeds` different workload seeds and reports mean ± std
// of both metrics — the robustness check the single-seed paper omits.
func (r *Runner) ExtMultiSeed(seeds int) ([]SeedStats, error) {
	if seeds < 2 {
		return nil, fmt.Errorf("experiments: need at least 2 seeds, got %d", seeds)
	}
	type sample struct{ reb, en float64 }
	collected := map[string][]sample{}
	order := []string{"Default", "RTMA", "EMA"}
	for s := 0; s < seeds; s++ {
		sub, err := r.subRunner(func(o *Options) { o.Seed = r.opts.Seed + uint64(s)*1000003 })
		if err != nil {
			return nil, err
		}
		sc := scenario{users: sub.opts.CDFUsers, avgSizeMB: sub.opts.CDFAvgSizeMB}
		def, err := sub.defaultRun(sc)
		if err != nil {
			return nil, err
		}
		rtma, err := sub.rtmaRun(sc, 1.0)
		if err != nil {
			return nil, err
		}
		ema, _, err := sub.emaRun(sc, 1.0)
		if err != nil {
			return nil, err
		}
		for i, res := range []*cell.Result{def, rtma, ema} {
			collected[order[i]] = append(collected[order[i]], sample{
				reb: float64(res.MeanRebufferPerUser()),
				en:  float64(res.MeanEnergyPerUser()) / 1000,
			})
		}
	}
	out := make([]SeedStats, 0, len(order))
	defReb := extract(collected["Default"], func(s sample) float64 { return s.reb })
	defEn := extract(collected["Default"], func(s sample) float64 { return s.en })
	for _, label := range order {
		xs := collected[label]
		st := SeedStats{Label: label, Seeds: len(xs), RebufferP: 1, EnergyP: 1}
		st.RebufferMean, st.RebufferStd = meanStd(xs, func(s sample) float64 { return s.reb })
		st.EnergyMean, st.EnergyStd = meanStd(xs, func(s sample) float64 { return s.en })
		if label != "Default" {
			if p, err := welchP(extract(xs, func(s sample) float64 { return s.reb }), defReb); err == nil {
				st.RebufferP = p
			}
			if p, err := welchP(extract(xs, func(s sample) float64 { return s.en }), defEn); err == nil {
				st.EnergyP = p
			}
		}
		out = append(out, st)
	}
	return out, nil
}

func extract[T any](xs []T, get func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = get(x)
	}
	return out
}

// welchP runs Welch's t-test and returns the two-sided p-value.
func welchP(a, b []float64) (float64, error) {
	sa, err := stats.Describe(a)
	if err != nil {
		return 0, err
	}
	sb, err := stats.Describe(b)
	if err != nil {
		return 0, err
	}
	res, err := stats.Welch(sa, sb)
	if err != nil {
		return 0, err
	}
	return res.P, nil
}

func meanStd[T any](xs []T, get func(T) float64) (mean, std float64) {
	n := float64(len(xs))
	for _, x := range xs {
		mean += get(x)
	}
	mean /= n
	for _, x := range xs {
		d := get(x) - mean
		std += d * d
	}
	return mean, math.Sqrt(std / n)
}
