package experiments

import (
	"context"
	"fmt"

	"jointstream/internal/cell"
	"jointstream/internal/pool"
)

// cdfEMAPair runs the Fig. 6/7 sample pair — Default and EMA (β = 1) at
// the CDF scenario, both recording per-user samples. The calibration
// ladder (each bisection step needs the previous step's measured PC) runs
// on the plain non-recording scenario; only the final pair records.
func (r *Runner) cdfEMAPair() (def, ema *cell.Result, v float64, err error) {
	sc := r.cdfScenario()
	if ema, v, err = r.emaRun(sc, 1.0); err != nil {
		return nil, nil, 0, err
	}
	if def, err = r.defaultRun(sc); err != nil {
		return nil, nil, 0, err
	}
	return def, ema, v, nil
}

// Fig6 regenerates Figure 6: CDF of the per-slot Jain fairness index,
// EMA (β = 1) versus Default.
func (r *Runner) Fig6() (*Figure, error) {
	sc := r.cdfScenario()
	def, ema, v, err := r.cdfEMAPair()
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "Fig. 6",
		Title:  "Fairness CDF (EMA vs Default)",
		XLabel: "Jain fairness index",
		YLabel: "CDF",
		Notes: []string{
			fmt.Sprintf("N=%d users, avg video %.0f MB", sc.users, sc.avgSizeMB),
			fmt.Sprintf("EMA Lyapunov weight V=%.4g (calibrated for beta=1)", v),
		},
	}
	for _, p := range []struct {
		label string
		res   *cell.Result
	}{{"Default", def}, {"EMA", ema}} {
		s, err := cdfSeries(p.label, fairnessSamples(p.res), cdfPoints)
		if err != nil {
			return nil, err
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Fig7 regenerates Figure 7: CDF of the total per-slot energy across all
// users (J), EMA (β = 1) versus Default. The paper reports ~50% of EMA
// slots below 25 J.
func (r *Runner) Fig7() (*Figure, error) {
	sc := r.cdfScenario()
	def, ema, v, err := r.cdfEMAPair()
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "Fig. 7",
		Title:  "Per-slot energy CDF (EMA vs Default)",
		XLabel: "total energy in a slot across users (J)",
		YLabel: "CDF",
		Notes: []string{
			fmt.Sprintf("N=%d users, avg video %.0f MB", sc.users, sc.avgSizeMB),
			fmt.Sprintf("EMA V=%.4g", v),
		},
	}
	for _, p := range []struct {
		label string
		res   *cell.Result
	}{{"Default", def}, {"EMA", ema}} {
		s, err := cdfSeries(p.label, perSlotTotalEnergyJ(p.res), cdfPoints)
		if err != nil {
			return nil, err
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Fig8a regenerates Figure 8(a): total energy per user versus user number,
// Default against EMA with β ∈ {0.8, 1, 1.2}.
func (r *Runner) Fig8a() (*Figure, error) {
	fig := &Figure{
		ID:     "Fig. 8a",
		Title:  "Energy vs user number (EMA beta sweep)",
		XLabel: "users",
		YLabel: "total energy per user (kJ)",
	}
	def := Series{Label: "Default"}
	for _, n := range r.opts.UserCounts {
		res, err := r.defaultRun(scenario{users: n, avgSizeMB: r.opts.CDFAvgSizeMB})
		if err != nil {
			return nil, err
		}
		def.X = append(def.X, float64(n))
		def.Y = append(def.Y, float64(res.MeanEnergyPerUser())/1e6)
	}
	fig.Series = append(fig.Series, def)
	for _, b := range r.opts.Betas {
		s := Series{Label: fmt.Sprintf("EMA beta=%.1f", b)}
		for _, n := range r.opts.UserCounts {
			res, v, err := r.emaRun(scenario{users: n, avgSizeMB: r.opts.CDFAvgSizeMB}, b)
			if err != nil {
				return nil, err
			}
			s.X = append(s.X, float64(n))
			s.Y = append(s.Y, float64(res.MeanEnergyPerUser())/1e6)
			if n == r.opts.UserCounts[len(r.opts.UserCounts)-1] {
				fig.Notes = append(fig.Notes, fmt.Sprintf("beta=%.1f: calibrated V=%.4g at N=%d", b, v, n))
			}
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Fig8b regenerates Figure 8(b): total energy per user versus average
// video size for the same β sweep.
func (r *Runner) Fig8b() (*Figure, error) {
	fig := &Figure{
		ID:     "Fig. 8b",
		Title:  "Energy vs data amount (EMA beta sweep)",
		XLabel: "average video size (MB)",
		YLabel: "total energy per user (J)",
	}
	users := r.opts.CDFUsers
	def := Series{Label: "Default"}
	for _, mb := range r.opts.AvgSizesMB {
		res, err := r.defaultRun(scenario{users: users, avgSizeMB: mb})
		if err != nil {
			return nil, err
		}
		def.X = append(def.X, mb)
		def.Y = append(def.Y, float64(res.MeanEnergyPerUser())/1000)
	}
	fig.Series = append(fig.Series, def)
	for _, b := range r.opts.Betas {
		s := Series{Label: fmt.Sprintf("EMA beta=%.1f", b)}
		for _, mb := range r.opts.AvgSizesMB {
			res, _, err := r.emaRun(scenario{users: users, avgSizeMB: mb}, b)
			if err != nil {
				return nil, err
			}
			s.X = append(s.X, mb)
			s.Y = append(s.Y, float64(res.MeanEnergyPerUser())/1000)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Fig9a regenerates Figure 9(a): average energy per user versus user
// number for EMA, EStreamer, SALSA and Default. Following the paper, EMA's
// rebuffering bound Ω is set to EStreamer's measured rebuffering.
func (r *Runner) Fig9a() (*Figure, error) {
	return r.fig9(true)
}

// Fig9b regenerates Figure 9(b): the rebuffering side of the same
// comparison.
func (r *Runner) Fig9b() (*Figure, error) {
	return r.fig9(false)
}

func (r *Runner) fig9(energy bool) (*Figure, error) {
	fig := &Figure{XLabel: "users"}
	if energy {
		fig.ID, fig.Title = "Fig. 9a", "Energy comparison (EMA vs baselines)"
		fig.YLabel = "total energy per user (J)"
	} else {
		fig.ID, fig.Title = "Fig. 9b", "Rebuffering comparison (EMA vs baselines)"
		fig.YLabel = "total rebuffering time per user (s)"
	}
	extract := func(res *cell.Result) float64 {
		if energy {
			return float64(res.MeanEnergyPerUser()) / 1000
		}
		return float64(res.MeanRebufferPerUser())
	}
	builders := []schedBuilder{baselineBuilder("default"), baselineBuilder("salsa"), baselineBuilder("estreamer")}
	series := make([]Series, len(builders))
	for i, sb := range builders {
		series[i] = Series{Label: map[string]string{
			"default": "Default", "salsa": "SALSA", "estreamer": "EStreamer",
		}[sb.key]}
	}
	// EMA, whose Ω depends on EStreamer's measured rebuffering, trails the
	// three independent baselines.
	for _, n := range r.opts.UserCounts {
		for i, sb := range builders {
			res, err := r.run(scenario{users: n, avgSizeMB: r.opts.CDFAvgSizeMB}, sb)
			if err != nil {
				return nil, err
			}
			series[i].X = append(series[i].X, float64(n))
			series[i].Y = append(series[i].Y, extract(res))
		}
	}
	fig.Series = append(fig.Series, series...)
	s := Series{Label: "EMA"}
	for _, n := range r.opts.UserCounts {
		res, v, err := r.emaRunOmegaEStreamer(n)
		if err != nil {
			return nil, err
		}
		s.X = append(s.X, float64(n))
		s.Y = append(s.Y, extract(res))
		if n == r.opts.UserCounts[0] {
			fig.Notes = append(fig.Notes, fmt.Sprintf("EMA Omega = EStreamer rebuffering; V=%.4g at N=%d", v, n))
		}
	}
	fig.Series = append(fig.Series, s)
	return fig, nil
}

// emaRunOmegaEStreamer calibrates EMA against EStreamer's measured
// rebuffering (the paper's Fig. 9 protocol).
func (r *Runner) emaRunOmegaEStreamer(n int) (*cell.Result, float64, error) {
	sc := scenario{users: n, avgSizeMB: r.opts.CDFAvgSizeMB}
	es, err := r.run(sc, baselineBuilder("estreamer"))
	if err != nil {
		return nil, 0, err
	}
	v, err := r.calibrateV(sc, es.PC())
	if err != nil {
		return nil, 0, err
	}
	res, err := r.emaRunWithV(sc, v)
	return res, v, err
}

// Fig10 regenerates Figure 10: the rebuffering–energy panel. Each series
// traces one scheduler across the user-count sweep with total energy per
// user on X and total rebuffering per user on Y.
func (r *Runner) Fig10() (*Figure, error) {
	fig := &Figure{
		ID:     "Fig. 10",
		Title:  "Rebuffering-energy tradeoff panel",
		XLabel: "total energy per user (J)",
		YLabel: "total rebuffering time per user (s)",
		Notes:  []string{"points along each curve correspond to the user-count sweep"},
	}
	def := Series{Label: "Default"}
	rtma := Series{Label: "RTMA alpha=1"}
	ema := Series{Label: "EMA beta=1"}
	for _, n := range r.opts.UserCounts {
		sc := scenario{users: n, avgSizeMB: r.opts.CDFAvgSizeMB}
		d, err := r.defaultRun(sc)
		if err != nil {
			return nil, err
		}
		def.X = append(def.X, float64(d.MeanEnergyPerUser())/1000)
		def.Y = append(def.Y, float64(d.MeanRebufferPerUser()))

		rt, err := r.rtmaRun(sc, 1.0)
		if err != nil {
			return nil, err
		}
		rtma.X = append(rtma.X, float64(rt.MeanEnergyPerUser())/1000)
		rtma.Y = append(rtma.Y, float64(rt.MeanRebufferPerUser()))

		em, _, err := r.emaRun(sc, 1.0)
		if err != nil {
			return nil, err
		}
		ema.X = append(ema.X, float64(em.MeanEnergyPerUser())/1000)
		ema.Y = append(ema.Y, float64(em.MeanRebufferPerUser()))
	}
	fig.Series = append(fig.Series, def, rtma, ema)
	return fig, nil
}

// namedFig pairs a figure function with its name for error reporting.
type namedFig struct {
	name string
	f    func() (*Figure, error)
}

func (r *Runner) allFigs() []namedFig {
	return []namedFig{
		{"Fig2", r.Fig2}, {"Fig3", r.Fig3},
		{"Fig4a", r.Fig4a}, {"Fig4b", r.Fig4b},
		{"Fig5a", r.Fig5a}, {"Fig5b", r.Fig5b},
		{"Fig6", r.Fig6}, {"Fig7", r.Fig7},
		{"Fig8a", r.Fig8a}, {"Fig8b", r.Fig8b},
		{"Fig9a", r.Fig9a}, {"Fig9b", r.Fig9b},
		{"Fig10", r.Fig10},
	}
}

// All runs every figure in order.
func (r *Runner) All() ([]*Figure, error) {
	figs := r.allFigs()
	out := make([]*Figure, 0, len(figs))
	for _, nf := range figs {
		fig, err := nf.f()
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", nf.name, err)
		}
		out = append(out, fig)
	}
	return out, nil
}

// AllParallel runs every figure concurrently on the worker pool. The
// Runner's singleflight cache coalesces the shared Default reference and
// calibration runs, so the parallel suite performs the same simulations
// as the sequential one, just overlapped. Results keep All's order.
func (r *Runner) AllParallel(ctx context.Context, workers int) ([]*Figure, error) {
	figs := r.allFigs()
	defer r.setRunContext(ctx)()
	return pool.Map(ctx, workers, figs, func(ctx context.Context, nf namedFig) (*Figure, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		fig, err := nf.f()
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", nf.name, err)
		}
		return fig, nil
	})
}
