package experiments

import (
	"fmt"

	"jointstream/internal/cell"
	"jointstream/internal/sched"
)

// cdfPoints is the resolution of regenerated CDF curves.
const cdfPoints = 21

// cdfScenario is the N=40, 350 MB setting shared by Figs. 2, 3, 6, 7.
func (r *Runner) cdfScenario() scenario {
	return scenario{users: r.opts.CDFUsers, avgSizeMB: r.opts.CDFAvgSizeMB, recordCDF: true}
}

// cdfRTMAPair runs the Fig. 2/3 sample pair — Default and RTMA (α = 1)
// at the CDF scenario — as one lockstep arm group over the shared
// workload, after deriving RTMA's budget from the plain (non-recording)
// Default reference run. The rebuilt RTMA instance only exposes the
// threshold for figure notes; the simulation used the batched arm.
func (r *Runner) cdfRTMAPair() (def, rtma *cell.Result, rt *sched.RTMA, err error) {
	sc := r.cdfScenario()
	base, err := r.defaultRun(scenario{users: sc.users, avgSizeMB: sc.avgSizeMB})
	if err != nil {
		return nil, nil, nil, err
	}
	budget, err := sched.BudgetForAlpha(base.TransEnergyPerActiveSlot(), 1.0)
	if err != nil {
		return nil, nil, nil, err
	}
	sb := r.rtmaBuilderFor(1.0, budget)
	rs, err := r.runBatch(sc, []schedBuilder{baselineBuilder("default"), sb})
	if err != nil {
		return nil, nil, nil, err
	}
	s, err := sb.build()
	if err != nil {
		return nil, nil, nil, err
	}
	return rs[0], rs[1], s.(*sched.RTMA), nil
}

// Fig2 regenerates Figure 2: CDF of the per-slot Jain fairness index,
// RTMA (α = 1) versus Default, at the CDF scenario. The paper reports
// RTMA above 0.7 for more than 90% of slots while Default sits below 0.2
// for about half the slots.
func (r *Runner) Fig2() (*Figure, error) {
	sc := r.cdfScenario()
	def, rtma, rt, err := r.cdfRTMAPair()
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "Fig. 2",
		Title:  "Fairness CDF (RTMA vs Default)",
		XLabel: "Jain fairness index",
		YLabel: "CDF",
		Notes: []string{
			fmt.Sprintf("N=%d users, avg video %.0f MB", sc.users, sc.avgSizeMB),
			fmt.Sprintf("RTMA admission threshold phi=%.1f dBm", float64(rt.Threshold())),
		},
	}
	for _, p := range []struct {
		label string
		res   *cell.Result
	}{{"Default", def}, {"RTMA", rtma}} {
		s, err := cdfSeries(p.label, fairnessSamples(p.res), cdfPoints)
		if err != nil {
			return nil, err
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Fig3 regenerates Figure 3: CDF of per-user per-slot rebuffering time
// c_i(n), RTMA (α = 1) versus Default. The paper reports ~90% of RTMA
// slots under 1.5 s while >20% of Default users suffer >11 s stalls.
func (r *Runner) Fig3() (*Figure, error) {
	sc := r.cdfScenario()
	def, rtma, _, err := r.cdfRTMAPair()
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "Fig. 3",
		Title:  "Rebuffering time CDF (RTMA vs Default)",
		XLabel: "per-user rebuffering time in a slot window (s)",
		YLabel: "CDF",
		Notes:  []string{fmt.Sprintf("N=%d users, avg video %.0f MB", sc.users, sc.avgSizeMB)},
	}
	for _, p := range []struct {
		label string
		res   *cell.Result
	}{{"Default", def}, {"RTMA", rtma}} {
		// Aggregate each user's rebuffering over non-overlapping 10-slot
		// windows: per-slot stalls are mostly 0-or-τ, so windows expose
		// the distribution's tail the way the paper's Fig. 3 axis (0-11 s)
		// does.
		sample := windowedSums(p.res.RebufferSamples, 10)
		s, err := cdfSeries(p.label, sample, cdfPoints)
		if err != nil {
			return nil, err
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// windowedSums sums each user's per-slot series over fixed windows.
func windowedSums(perUser [][]float64, window int) []float64 {
	var out []float64
	for _, row := range perUser {
		for start := 0; start < len(row); start += window {
			end := start + window
			if end > len(row) {
				end = len(row)
			}
			sum := 0.0
			for _, v := range row[start:end] {
				sum += v
			}
			out = append(out, sum)
		}
	}
	return out
}

// Fig4a regenerates Figure 4(a): average total rebuffering time per user
// versus user number, Default against RTMA with α ∈ {0.8, 1, 1.2}.
func (r *Runner) Fig4a() (*Figure, error) {
	fig := &Figure{
		ID:     "Fig. 4a",
		Title:  "Rebuffering vs user number (RTMA alpha sweep)",
		XLabel: "users",
		YLabel: "total rebuffering time per user (s)",
	}
	def := Series{Label: "Default"}
	byAlpha := make([]Series, len(r.opts.Alphas))
	for i, a := range r.opts.Alphas {
		byAlpha[i] = Series{Label: fmt.Sprintf("RTMA alpha=%.1f", a)}
	}
	// Per scenario: the Default reference first (it sets every alpha's
	// budget), then all alpha arms as one lockstep group.
	for _, n := range r.opts.UserCounts {
		sc := scenario{users: n, avgSizeMB: r.opts.CDFAvgSizeMB}
		res, err := r.defaultRun(sc)
		if err != nil {
			return nil, err
		}
		def.X = append(def.X, float64(n))
		def.Y = append(def.Y, float64(res.MeanRebufferPerUser()))
		rs, err := r.rtmaBatch(sc, r.opts.Alphas)
		if err != nil {
			return nil, err
		}
		for i, ar := range rs {
			byAlpha[i].X = append(byAlpha[i].X, float64(n))
			byAlpha[i].Y = append(byAlpha[i].Y, float64(ar.MeanRebufferPerUser()))
		}
	}
	fig.Series = append(fig.Series, def)
	fig.Series = append(fig.Series, byAlpha...)
	return fig, nil
}

// Fig4b regenerates Figure 4(b): rebuffering versus average video size.
func (r *Runner) Fig4b() (*Figure, error) {
	fig := &Figure{
		ID:     "Fig. 4b",
		Title:  "Rebuffering vs data amount (RTMA alpha sweep)",
		XLabel: "average video size (MB)",
		YLabel: "total rebuffering time per user (s)",
	}
	users := r.opts.CDFUsers
	def := Series{Label: "Default"}
	byAlpha := make([]Series, len(r.opts.Alphas))
	for i, a := range r.opts.Alphas {
		byAlpha[i] = Series{Label: fmt.Sprintf("RTMA alpha=%.1f", a)}
	}
	for _, mb := range r.opts.AvgSizesMB {
		sc := scenario{users: users, avgSizeMB: mb}
		res, err := r.defaultRun(sc)
		if err != nil {
			return nil, err
		}
		def.X = append(def.X, mb)
		def.Y = append(def.Y, float64(res.MeanRebufferPerUser()))
		rs, err := r.rtmaBatch(sc, r.opts.Alphas)
		if err != nil {
			return nil, err
		}
		for i, ar := range rs {
			byAlpha[i].X = append(byAlpha[i].X, mb)
			byAlpha[i].Y = append(byAlpha[i].Y, float64(ar.MeanRebufferPerUser()))
		}
	}
	fig.Series = append(fig.Series, def)
	fig.Series = append(fig.Series, byAlpha...)
	return fig, nil
}

// Fig5a regenerates Figure 5(a): average rebuffering per user versus user
// number for Default, Throttling, ON-OFF and RTMA (Φ = E_Default).
func (r *Runner) Fig5a() (*Figure, error) {
	fig := &Figure{
		ID:     "Fig. 5a",
		Title:  "Rebuffering comparison (RTMA vs baselines)",
		XLabel: "users",
		YLabel: "total rebuffering time per user (s)",
	}
	builders := []schedBuilder{
		baselineBuilder("default"),
		baselineBuilder("throttling"),
		baselineBuilder("onoff"),
	}
	labels := []string{"Default", "Throttling", "ON-OFF"}
	series := make([]Series, len(builders))
	for i, l := range labels {
		series[i] = Series{Label: l}
	}
	// All three independent baselines of a scenario run as one lockstep
	// group over its shared workload.
	for _, n := range r.opts.UserCounts {
		rs, err := r.runBatch(scenario{users: n, avgSizeMB: r.opts.CDFAvgSizeMB}, builders)
		if err != nil {
			return nil, err
		}
		for i, res := range rs {
			series[i].X = append(series[i].X, float64(n))
			series[i].Y = append(series[i].Y, float64(res.MeanRebufferPerUser()))
		}
	}
	fig.Series = append(fig.Series, series...)
	s := Series{Label: "RTMA"}
	for _, n := range r.opts.UserCounts {
		res, err := r.rtmaRun(scenario{users: n, avgSizeMB: r.opts.CDFAvgSizeMB}, 1.0)
		if err != nil {
			return nil, err
		}
		s.X = append(s.X, float64(n))
		s.Y = append(s.Y, float64(res.MeanRebufferPerUser()))
	}
	fig.Series = append(fig.Series, s)
	return fig, nil
}

// Fig5b regenerates Figure 5(b): average energy per user for the same four
// schedulers, with a separate "(tail)" series mirroring the paper's black
// tail-energy bars.
func (r *Runner) Fig5b() (*Figure, error) {
	fig := &Figure{
		ID:     "Fig. 5b",
		Title:  "Energy comparison (RTMA vs baselines)",
		XLabel: "users",
		YLabel: "total energy per user (J)",
	}
	type row struct {
		label string
		get   func(n int) (*cell.Result, error)
	}
	rows := []row{
		{"Default", func(n int) (*cell.Result, error) {
			return r.defaultRun(scenario{users: n, avgSizeMB: r.opts.CDFAvgSizeMB})
		}},
		{"Throttling", func(n int) (*cell.Result, error) {
			return r.run(scenario{users: n, avgSizeMB: r.opts.CDFAvgSizeMB}, baselineBuilder("throttling"))
		}},
		{"ON-OFF", func(n int) (*cell.Result, error) {
			return r.run(scenario{users: n, avgSizeMB: r.opts.CDFAvgSizeMB}, baselineBuilder("onoff"))
		}},
		{"RTMA", func(n int) (*cell.Result, error) {
			return r.rtmaRun(scenario{users: n, avgSizeMB: r.opts.CDFAvgSizeMB}, 1.0)
		}},
	}
	for _, rw := range rows {
		total := Series{Label: rw.label}
		tail := Series{Label: rw.label + " (tail)"}
		for _, n := range r.opts.UserCounts {
			res, err := rw.get(n)
			if err != nil {
				return nil, err
			}
			total.X = append(total.X, float64(n))
			total.Y = append(total.Y, float64(res.MeanEnergyPerUser())/1000)
			tail.X = append(tail.X, float64(n))
			tail.Y = append(tail.Y, float64(res.TotalTailEnergy())/1000/float64(n))
		}
		fig.Series = append(fig.Series, total, tail)
	}
	return fig, nil
}
