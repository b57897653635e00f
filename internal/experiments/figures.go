package experiments

import (
	"context"
	"fmt"
	"strings"

	"jointstream/internal/cell"
	"jointstream/internal/pool"
	"jointstream/internal/units"
)

// The figures are data. Each is a row of a registry (figures below, and
// extensions in extensions.go) that combines arms — a label plus how to
// run at a scenario — with metrics and one of three shapes: a sweep over
// the user counts or the average sizes, a CDF pair at the CDF scenario,
// or an extension's comparison of arms at the CDF scenario.

// An arm is one scheduler of a figure: its label and how to run it at a
// scenario. run also returns what the protocol derived for it, which a
// note may quote: RTMA's admission threshold φ (dBm), EMA's calibrated V;
// 0 for the rest.
type arm struct {
	label string
	run   func(r *Runner, sc scenario) (*cell.Result, float64, error)
}

// as is the arm under another label.
func (a arm) as(label string) arm {
	a.label = label
	return a
}

// baseline is the parameter-free scheduler sched.ByName builds as name.
func baseline(label, name string) arm {
	return arm{label, func(r *Runner, sc scenario) (*cell.Result, float64, error) {
		res, err := r.run(sc, baselineBuilder(name))
		return res, 0, err
	}}
}

var (
	defaultArm = baseline("Default", "default")
	throttling = baseline("Throttling", "throttling")
	onoff      = baseline("ON-OFF", "onoff")
	salsa      = baseline("SALSA", "salsa")
	estreamer  = baseline("EStreamer", "estreamer")
)

// rtma is RTMA at Φ = alpha·E_Default.
func rtma(label string, alpha float64) arm {
	return arm{label, func(r *Runner, sc scenario) (*cell.Result, float64, error) {
		sb, phi, err := r.rtmaBuilder(sc, alpha)
		if err != nil {
			return nil, 0, err
		}
		res, err := r.run(sc, sb)
		return res, phi, err
	}}
}

// emaAt is EMA with V calibrated so that PC meets omega. The ladder and
// omega's reference run use the plain scenario; only the final run keys on
// sc itself, so a CDF-recording scenario re-simulates with samples.
func emaAt(label string, omega func(r *Runner, plain scenario) (units.Seconds, error)) arm {
	return arm{label, func(r *Runner, sc scenario) (*cell.Result, float64, error) {
		plain := scenario{users: sc.users, avgSizeMB: sc.avgSizeMB}
		om, err := omega(r, plain)
		if err != nil {
			return nil, 0, err
		}
		v, err := r.calibrateV(plain, om)
		if err != nil {
			return nil, 0, err
		}
		res, err := r.emaRunWithV(sc, v)
		return res, v, err
	}}
}

// ema is EMA at Ω = beta·R_Default.
func ema(label string, beta float64) arm {
	return emaAt(label, func(r *Runner, plain scenario) (units.Seconds, error) {
		def, err := r.defaultRun(plain)
		if err != nil {
			return 0, err
		}
		return units.Seconds(float64(def.PC()) * beta), nil
	})
}

// emaVsEStreamer is EMA at Ω = EStreamer's measured rebuffering, the
// paper's Fig. 9 protocol.
var emaVsEStreamer = emaAt("EMA", func(r *Runner, plain scenario) (units.Seconds, error) {
	es, _, err := estreamer.run(r, plain)
	if err != nil {
		return 0, err
	}
	return es.PC(), nil
})

// A metric is what a series plots of one run.
type metric func(*cell.Result) (float64, error)

func rebuffer(res *cell.Result) (float64, error) { return float64(res.MeanRebufferPerUser()), nil }
func energyJ(res *cell.Result) (float64, error)  { return float64(res.MeanEnergyPerUser()) / 1000, nil }
func energyKJ(res *cell.Result) (float64, error) { return float64(res.MeanEnergyPerUser()) / 1e6, nil }

// tailJ is the RRC tail's share of energyJ, Fig. 5b's black bars.
func tailJ(res *cell.Result) (float64, error) {
	return float64(res.TotalTailEnergy()) / 1000 / float64(len(res.Users)), nil
}

// A curve is one series of a sweep: its arm's y at every point of the
// axis, or, with x set, the points (x, y) of its runs. A note, if set, is
// formatted with the arm's derived value and the user count at point
// noteAt (-1 is the last point).
type curve struct {
	arm
	x, y   metric
	note   string
	noteAt int
}

// plot measures every arm by y.
func plot(y metric, arms ...arm) []curve {
	cs := make([]curve, len(arms))
	for i, a := range arms {
		cs[i] = curve{arm: a, y: y}
	}
	return cs
}

// An axis is what a sweep varies.
type axis int

const (
	overUsers axis = iota // UserCounts, at CDFAvgSizeMB
	overSizes             // AvgSizesMB, at CDFUsers
)

// sweep draws fig over one axis, a curve a series.
func (r *Runner) sweep(fig Figure, over axis, curves ...curve) (*Figure, error) {
	var xs []float64
	var scs []scenario
	if over == overSizes {
		for _, mb := range r.opts.AvgSizesMB {
			xs = append(xs, mb)
			scs = append(scs, scenario{users: r.opts.CDFUsers, avgSizeMB: mb})
		}
	} else {
		for _, n := range r.opts.UserCounts {
			xs = append(xs, float64(n))
			scs = append(scs, scenario{users: n, avgSizeMB: r.opts.CDFAvgSizeMB})
		}
	}
	for _, c := range curves {
		s := Series{Label: c.label}
		for i, sc := range scs {
			res, derived, err := c.run(r, sc)
			if err != nil {
				return nil, err
			}
			x, y := xs[i], 0.0
			if c.x != nil {
				if x, err = c.x(res); err != nil {
					return nil, err
				}
			}
			if y, err = c.y(res); err != nil {
				return nil, err
			}
			s.X = append(s.X, x)
			s.Y = append(s.Y, y)
			if c.note != "" && i == (c.noteAt+len(scs))%len(scs) {
				fig.Notes = append(fig.Notes, fmt.Sprintf(c.note, derived, sc.users))
			}
		}
		fig.Series = append(fig.Series, s)
	}
	return &fig, nil
}

// cdfPoints is the resolution of regenerated CDF curves.
const cdfPoints = 21

// cdfPair draws one of Figs. 2, 3, 6 and 7: the CDF of sample for Default
// and for a, both recording per-user samples at the CDF scenario. note, if
// set, is formatted with a's derived value.
func (r *Runner) cdfPair(fig Figure, a arm, sample func(*cell.Result) []float64, note string) (*Figure, error) {
	sc := r.cdfScenario()
	sc.recordCDF = true
	fig.YLabel = "CDF"
	fig.Notes = []string{r.scenarioNote()}
	var derived float64
	for _, a := range []arm{defaultArm, a} {
		res, d, err := a.run(r, sc)
		if err != nil {
			return nil, err
		}
		s, err := cdfSeries(a.label, sample(res), cdfPoints)
		if err != nil {
			return nil, err
		}
		fig.Series = append(fig.Series, s)
		derived = d
	}
	if note != "" {
		fig.Notes = append(fig.Notes, fmt.Sprintf(note, derived))
	}
	return &fig, nil
}

// cdfScenario is the setting of the CDF figures and of most extensions
// (N=40, 350 MB at paper scale), without per-user samples.
func (r *Runner) cdfScenario() scenario {
	return scenario{users: r.opts.CDFUsers, avgSizeMB: r.opts.CDFAvgSizeMB}
}

// scenarioNote describes the CDF scenario.
func (r *Runner) scenarioNote() string {
	return fmt.Sprintf("N=%d users, avg video %.0f MB", r.opts.CDFUsers, r.opts.CDFAvgSizeMB)
}

// windowedRebuffer sums each user's per-slot rebuffering over
// non-overlapping 10-slot windows: per-slot stalls are mostly 0 or τ, so
// windows expose the distribution's tail the way the paper's Fig. 3 axis
// (0–11 s) does.
func windowedRebuffer(res *cell.Result) []float64 {
	var out []float64
	for _, row := range res.RebufferSamples {
		for start := 0; start < len(row); start += 10 {
			sum := 0.0
			for _, v := range row[start:min(start+10, len(row))] {
				sum += v
			}
			out = append(out, sum)
		}
	}
	return out
}

const (
	xSizes    = "average video size (MB)"
	yRebuffer = "total rebuffering time per user (s)"
	yEnergy   = "total energy per user (J)"
)

// rtmaBaselines are Fig. 5's arms.
var rtmaBaselines = []arm{defaultArm, throttling, onoff, rtma("RTMA", 1)}

// alphaArms are Fig. 4's arms: Default and RTMA at every α.
func (r *Runner) alphaArms() []arm {
	arms := []arm{defaultArm}
	for _, a := range r.opts.Alphas {
		arms = append(arms, rtma(fmt.Sprintf("RTMA alpha=%.1f", a), a))
	}
	return arms
}

// betaArms are Fig. 8's arms: Default and EMA at every β.
func (r *Runner) betaArms() []arm {
	arms := []arm{defaultArm}
	for _, b := range r.opts.Betas {
		arms = append(arms, ema(fmt.Sprintf("EMA beta=%.1f", b), b))
	}
	return arms
}

// fig9 is Fig. 9's comparison measured by y. EMA's Ω is EStreamer's
// measured rebuffering.
func (r *Runner) fig9(fig Figure, y metric) (*Figure, error) {
	cs := plot(y, defaultArm, salsa, estreamer, emaVsEStreamer)
	cs[3].note = "EMA Omega = EStreamer rebuffering; V=%.4g at N=%d"
	return r.sweep(fig, overUsers, cs...)
}

// A figure is one registry row: the name -fig or -ext selects it by and
// how to draw it.
type figure struct {
	name string
	draw func(*Runner) (*Figure, error)
}

// figures are the paper's 13 figures in the paper's order.
var figures = []figure{
	{"2", func(r *Runner) (*Figure, error) {
		fig := Figure{ID: "Fig. 2", Title: "Fairness CDF (RTMA vs Default)", XLabel: "Jain fairness index"}
		return r.cdfPair(fig, rtma("RTMA", 1), fairnessSamples, "RTMA admission threshold phi=%.1f dBm")
	}},
	{"3", func(r *Runner) (*Figure, error) {
		fig := Figure{ID: "Fig. 3", Title: "Rebuffering time CDF (RTMA vs Default)",
			XLabel: "per-user rebuffering time in a slot window (s)"}
		return r.cdfPair(fig, rtma("RTMA", 1), windowedRebuffer, "")
	}},
	{"4a", func(r *Runner) (*Figure, error) {
		fig := Figure{ID: "Fig. 4a", Title: "Rebuffering vs user number (RTMA alpha sweep)", XLabel: "users", YLabel: yRebuffer}
		return r.sweep(fig, overUsers, plot(rebuffer, r.alphaArms()...)...)
	}},
	{"4b", func(r *Runner) (*Figure, error) {
		fig := Figure{ID: "Fig. 4b", Title: "Rebuffering vs data amount (RTMA alpha sweep)", XLabel: xSizes, YLabel: yRebuffer}
		return r.sweep(fig, overSizes, plot(rebuffer, r.alphaArms()...)...)
	}},
	{"5a", func(r *Runner) (*Figure, error) {
		fig := Figure{ID: "Fig. 5a", Title: "Rebuffering comparison (RTMA vs baselines)", XLabel: "users", YLabel: yRebuffer}
		return r.sweep(fig, overUsers, plot(rebuffer, rtmaBaselines...)...)
	}},
	{"5b", func(r *Runner) (*Figure, error) {
		fig := Figure{ID: "Fig. 5b", Title: "Energy comparison (RTMA vs baselines)", XLabel: "users", YLabel: yEnergy}
		var cs []curve
		for _, a := range rtmaBaselines {
			cs = append(cs, curve{arm: a, y: energyJ}, curve{arm: a.as(a.label + " (tail)"), y: tailJ})
		}
		return r.sweep(fig, overUsers, cs...)
	}},
	{"6", func(r *Runner) (*Figure, error) {
		fig := Figure{ID: "Fig. 6", Title: "Fairness CDF (EMA vs Default)", XLabel: "Jain fairness index"}
		return r.cdfPair(fig, ema("EMA", 1), fairnessSamples, "EMA Lyapunov weight V=%.4g (calibrated for beta=1)")
	}},
	{"7", func(r *Runner) (*Figure, error) {
		fig := Figure{ID: "Fig. 7", Title: "Per-slot energy CDF (EMA vs Default)",
			XLabel: "total energy in a slot across users (J)"}
		return r.cdfPair(fig, ema("EMA", 1), perSlotTotalEnergyJ, "EMA V=%.4g")
	}},
	{"8a", func(r *Runner) (*Figure, error) {
		fig := Figure{ID: "Fig. 8a", Title: "Energy vs user number (EMA beta sweep)", XLabel: "users",
			YLabel: "total energy per user (kJ)"}
		cs := plot(energyKJ, r.betaArms()...)
		for i, b := range r.opts.Betas {
			cs[i+1].note = fmt.Sprintf("beta=%.1f: calibrated V=%%.4g at N=%%d", b)
			cs[i+1].noteAt = -1
		}
		return r.sweep(fig, overUsers, cs...)
	}},
	{"8b", func(r *Runner) (*Figure, error) {
		fig := Figure{ID: "Fig. 8b", Title: "Energy vs data amount (EMA beta sweep)", XLabel: xSizes, YLabel: yEnergy}
		return r.sweep(fig, overSizes, plot(energyJ, r.betaArms()...)...)
	}},
	{"9a", func(r *Runner) (*Figure, error) {
		fig := Figure{ID: "Fig. 9a", Title: "Energy comparison (EMA vs baselines)", XLabel: "users", YLabel: yEnergy}
		return r.fig9(fig, energyJ)
	}},
	{"9b", func(r *Runner) (*Figure, error) {
		fig := Figure{ID: "Fig. 9b", Title: "Rebuffering comparison (EMA vs baselines)", XLabel: "users", YLabel: yRebuffer}
		return r.fig9(fig, rebuffer)
	}},
	{"10", func(r *Runner) (*Figure, error) {
		fig := Figure{ID: "Fig. 10", Title: "Rebuffering-energy tradeoff panel", XLabel: yEnergy, YLabel: yRebuffer,
			Notes: []string{"points along each curve correspond to the user-count sweep"}}
		cs := plot(rebuffer, defaultArm, rtma("RTMA alpha=1", 1), ema("EMA beta=1", 1))
		for i := range cs {
			cs[i].x = energyJ
		}
		return r.sweep(fig, overUsers, cs...)
	}},
}

// lookup draws the row called name; an unknown name is an error that
// lists the rows' names and then more, the other names the caller takes.
func (r *Runner) lookup(rows []figure, kind, name string, more ...string) (*Figure, error) {
	var names []string
	for _, f := range rows {
		if f.name == name {
			return f.draw(r)
		}
		names = append(names, f.name)
	}
	return nil, fmt.Errorf("experiments: unknown %s %q (valid: %s)", kind, name, strings.Join(append(names, more...), ", "))
}

// Figure draws the paper figure called name: "2", "3", "4a", "4b", "5a",
// "5b", "6", "7", "8a", "8b", "9a", "9b" or "10".
func (r *Runner) Figure(name string) (*Figure, error) {
	return r.lookup(figures, "figure", name)
}

// Fig2 regenerates Figure 2: CDF of the per-slot Jain fairness index,
// RTMA (α = 1) versus Default, at the CDF scenario. The paper reports
// RTMA above 0.7 for more than 90% of slots while Default sits below 0.2
// for about half the slots.
func (r *Runner) Fig2() (*Figure, error) { return r.Figure("2") }

// Fig3 regenerates Figure 3: CDF of per-user per-slot rebuffering time
// c_i(n), RTMA (α = 1) versus Default. The paper reports ~90% of RTMA
// slots under 1.5 s while >20% of Default users suffer >11 s stalls.
func (r *Runner) Fig3() (*Figure, error) { return r.Figure("3") }

// Fig4a regenerates Figure 4(a): average total rebuffering time per user
// versus user number, Default against RTMA with α ∈ {0.8, 1, 1.2}.
func (r *Runner) Fig4a() (*Figure, error) { return r.Figure("4a") }

// Fig4b regenerates Figure 4(b): rebuffering versus average video size.
func (r *Runner) Fig4b() (*Figure, error) { return r.Figure("4b") }

// Fig5a regenerates Figure 5(a): average rebuffering per user versus user
// number for Default, Throttling, ON-OFF and RTMA (Φ = E_Default).
func (r *Runner) Fig5a() (*Figure, error) { return r.Figure("5a") }

// Fig5b regenerates Figure 5(b): average energy per user for the same four
// schedulers, with a separate "(tail)" series mirroring the paper's black
// tail-energy bars.
func (r *Runner) Fig5b() (*Figure, error) { return r.Figure("5b") }

// Fig6 regenerates Figure 6: CDF of the per-slot Jain fairness index,
// EMA (β = 1) versus Default.
func (r *Runner) Fig6() (*Figure, error) { return r.Figure("6") }

// Fig7 regenerates Figure 7: CDF of the total per-slot energy across all
// users (J), EMA (β = 1) versus Default. The paper reports ~50% of EMA
// slots below 25 J.
func (r *Runner) Fig7() (*Figure, error) { return r.Figure("7") }

// Fig8a regenerates Figure 8(a): total energy per user versus user number,
// Default against EMA with β ∈ {0.8, 1, 1.2}.
func (r *Runner) Fig8a() (*Figure, error) { return r.Figure("8a") }

// Fig8b regenerates Figure 8(b): total energy per user versus average
// video size for the same β sweep.
func (r *Runner) Fig8b() (*Figure, error) { return r.Figure("8b") }

// Fig9a regenerates Figure 9(a): average energy per user versus user
// number for EMA, EStreamer, SALSA and Default. Following the paper, EMA's
// rebuffering bound Ω is set to EStreamer's measured rebuffering.
func (r *Runner) Fig9a() (*Figure, error) { return r.Figure("9a") }

// Fig9b regenerates Figure 9(b): the rebuffering side of the same
// comparison.
func (r *Runner) Fig9b() (*Figure, error) { return r.Figure("9b") }

// Fig10 regenerates Figure 10: the rebuffering–energy panel. Each series
// traces one scheduler across the user-count sweep with total energy per
// user on X and total rebuffering per user on Y.
func (r *Runner) Fig10() (*Figure, error) { return r.Figure("10") }

// AllParallel runs every figure concurrently on the worker pool (one
// worker runs them in order, inline). The Runner's singleflight cache
// coalesces the shared Default reference and calibration runs, so the
// parallel suite performs the same simulations as the sequential one, just
// overlapped. Results keep the registry's order.
func (r *Runner) AllParallel(ctx context.Context, workers int) ([]*Figure, error) {
	defer r.setRunContext(ctx)()
	return pool.Map(ctx, workers, figures, func(ctx context.Context, f figure) (*Figure, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		fig, err := f.draw(r)
		if err != nil {
			return nil, fmt.Errorf("experiments: Fig%s: %w", f.name, err)
		}
		return fig, nil
	})
}
