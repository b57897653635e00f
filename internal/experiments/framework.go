package experiments

import (
	"fmt"
	"math"

	"jointstream/internal/cell"
	"jointstream/internal/sched"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// frameworkCalibrationSteps is the V bisection depth of Framework.EM.
const frameworkCalibrationSteps = 8

// Framework runs the paper's two-mode framework (§III-A) on one workload,
// by the protocol the figures follow: Default first, then RTMA at
// Φ = α·E_Default (RTM mode) or EMA at Ω = β·R_Default (EM mode). Each
// method runs the figures' own arm on a one-scenario Runner whose shape is
// the caller's workload, so the modes share one Default run and one
// calibration ladder. Every run records totals only.
type Framework struct {
	r  *Runner
	sc scenario
}

// NewFramework validates the cell and the workload and returns the
// framework over the workload wl generates from seed.
func NewFramework(cellCfg cell.Config, wl workload.Config, seed uint64) (*Framework, error) {
	if err := wl.Validate(); err != nil {
		return nil, err
	}
	// The sweep axes are one point, the scenario the shape replaces.
	r, err := NewRunner(Options{
		Seed: seed, Cell: cellCfg,
		UserCounts: []int{wl.Users}, AvgSizesMB: []float64{1},
		CDFUsers: wl.Users, CDFAvgSizeMB: 1,
		Alphas: []float64{1}, Betas: []float64{1},
		CalibrationSteps: frameworkCalibrationSteps,
	})
	if err != nil {
		return nil, err
	}
	r.shape = func(c *workload.Config) { *c = wl }
	return &Framework{r: r, sc: scenario{users: wl.Users, avgSizeMB: 1}}, nil
}

// Default is the Default strategy's run, the reference of both modes.
func (f *Framework) Default() (*cell.Result, error) { return f.r.defaultRun(f.sc) }

// RTM runs RTMA at Φ = alpha·E_Default and returns its run, Φ and the
// signal admission threshold φ it derives from Eq. (12).
func (f *Framework) RTM(alpha float64) (*cell.Result, units.MJ, units.DBm, error) {
	def, err := f.Default()
	if err != nil {
		return nil, 0, 0, err
	}
	phi, err := sched.BudgetForAlpha(def.TransEnergyPerActiveSlot(), alpha)
	if err != nil {
		return nil, 0, 0, err
	}
	res, threshold, err := rtma("RTMA", alpha).run(f.r, f.sc)
	return res, phi, units.DBm(threshold), err
}

// EM runs EMA at Ω = beta·R_Default and returns its run, Ω and V: v, or,
// when v is 0, the largest V the bisection finds whose PC meets Ω.
func (f *Framework) EM(beta, v float64) (*cell.Result, units.Seconds, float64, error) {
	if v < 0 || math.IsNaN(v) {
		return nil, 0, 0, fmt.Errorf("experiments: invalid V %v", v)
	}
	omega, err := f.omega(beta)
	if err != nil {
		return nil, 0, 0, err
	}
	var res *cell.Result
	if v == 0 {
		res, v, err = ema("EMA", beta).run(f.r, f.sc)
	} else {
		res, err = f.r.emaRunWithV(f.sc, v)
	}
	return res, omega, v, err
}

// AdaptiveEM runs the online AdaptiveEMA at Ω = beta·R_Default and returns
// its run, Ω and the weight V it ended the run at.
func (f *Framework) AdaptiveEM(beta float64) (*cell.Result, units.Seconds, float64, error) {
	omega, err := f.omega(beta)
	if err != nil {
		return nil, 0, 0, err
	}
	ae, err := sched.NewAdaptiveEMA(sched.AdaptiveEMAConfig{Omega: omega, RRC: f.r.opts.Cell.RRC})
	if err != nil {
		return nil, 0, 0, err
	}
	res, err := f.r.simulate(f.sc, schedBuilder{build: func() (sched.Scheduler, error) { return ae, nil }})
	return res, omega, ae.V(), err
}

// omega is EMA's rebuffering bound Ω = beta·R_Default.
func (f *Framework) omega(beta float64) (units.Seconds, error) {
	if beta < 0 || math.IsNaN(beta) {
		return 0, fmt.Errorf("experiments: invalid beta %v", beta)
	}
	def, err := f.Default()
	if err != nil {
		return 0, err
	}
	return units.Seconds(float64(def.PC()) * beta), nil
}
