// Package core is the top-level facade of the jointstream library: the
// paper's two-mode scheduling framework behind a single Run call.
//
// The framework operates in one of two complementary modes (§III-A):
//
//   - ModeRTM — Rebuffering Time Minimization: run RTMA to minimize
//     average rebuffering while capping energy at Φ = Alpha × the measured
//     Default-strategy energy.
//   - ModeEM — Energy Minimization: run EMA to minimize energy while
//     keeping average rebuffering within Ω = Beta × the measured
//     Default-strategy rebuffering, calibrating the Lyapunov weight V
//     automatically unless one is given.
//
// Run simulates the configured multi-user scenario and returns a Report
// with the mode's result side by side with the Default reference run, so
// callers immediately see the achieved trade-off. A live pipeline
// (internal/gateway) builds its algorithm with sched.ByName.
package core

import (
	"fmt"
	"math"

	"jointstream/internal/cell"
	"jointstream/internal/rng"
	"jointstream/internal/sched"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// Mode selects the framework's operating mode.
type Mode int

// The two complementary scheduler modes.
const (
	// ModeRTM minimizes rebuffering under an energy budget (RTMA).
	ModeRTM Mode = iota
	// ModeEM minimizes energy under a rebuffering bound (EMA).
	ModeEM
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeRTM:
		return "RTM"
	case ModeEM:
		return "EM"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config describes one framework run.
type Config struct {
	// Mode selects RTM or EM.
	Mode Mode

	// Alpha scales the measured Default energy into RTMA's budget Φ
	// (ModeRTM). Defaults to 1.
	Alpha float64

	// Beta scales the measured Default rebuffering into EMA's bound Ω
	// (ModeEM). Ignored when V is set. Defaults to 1.
	Beta float64
	// V fixes the Lyapunov weight directly, skipping calibration (ModeEM).
	V float64
	// Adaptive switches ModeEM to the AdaptiveEMA scheduler, which tracks
	// Ω online (multiplicative V adjustment) instead of requiring the
	// offline bisection; V and CalibrationSteps are then ignored.
	Adaptive bool
	// CalibrationSteps bounds the V bisection (default 8).
	CalibrationSteps int

	// Cell configures the simulator; zero value means cell.PaperConfig().
	Cell cell.Config
	// Workload configures the sessions; zero value means
	// workload.PaperDefaults(Users).
	Workload workload.Config
	// Users is the session count when Workload is zero (default 20).
	Users int
	// Seed drives all randomness (default 1).
	Seed uint64
}

// normalize fills defaults.
func (c Config) normalize() (Config, error) {
	if c.Mode != ModeRTM && c.Mode != ModeEM {
		return c, fmt.Errorf("core: unknown mode %d", int(c.Mode))
	}
	if c.Alpha == 0 {
		c.Alpha = 1
	}
	if c.Beta == 0 {
		c.Beta = 1
	}
	if c.Alpha < 0 || math.IsNaN(c.Alpha) {
		return c, fmt.Errorf("core: invalid alpha %v", c.Alpha)
	}
	if c.Beta < 0 || math.IsNaN(c.Beta) {
		return c, fmt.Errorf("core: invalid beta %v", c.Beta)
	}
	if c.V < 0 || math.IsNaN(c.V) {
		return c, fmt.Errorf("core: invalid V %v", c.V)
	}
	if c.CalibrationSteps == 0 {
		c.CalibrationSteps = 8
	}
	if c.CalibrationSteps < 1 {
		return c, fmt.Errorf("core: invalid calibration steps %d", c.CalibrationSteps)
	}
	if c.Users == 0 {
		c.Users = 20
	}
	if c.Users < 0 {
		return c, fmt.Errorf("core: invalid user count %d", c.Users)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Cell.Tau == 0 && c.Cell.Capacity == 0 {
		c.Cell = cell.PaperConfig()
	}
	if err := c.Cell.Validate(); err != nil {
		return c, err
	}
	if c.Workload.Users == 0 {
		c.Workload = workload.PaperDefaults(c.Users)
	}
	if err := c.Workload.Validate(); err != nil {
		return c, err
	}
	return c, nil
}

// ModeResult summarizes one scheduler's run.
type ModeResult struct {
	// Scheduler names the algorithm.
	Scheduler string
	// Slots is the simulated horizon Γ.
	Slots int
	// MeanRebufferPerUser is the total stall time averaged over users.
	MeanRebufferPerUser units.Seconds
	// MeanEnergyPerUser is the total energy averaged over users (mJ).
	MeanEnergyPerUser units.MJ
	// TailEnergyPerUser is the tail share of MeanEnergyPerUser (mJ).
	TailEnergyPerUser units.MJ
	// PC and PE are the paper's per-user per-slot averages.
	PC units.Seconds
	PE units.MJ
}

func summarize(res *cell.Result) ModeResult {
	n := len(res.Users)
	return ModeResult{
		Scheduler:           res.SchedulerName,
		Slots:               res.Slots,
		MeanRebufferPerUser: res.MeanRebufferPerUser(),
		MeanEnergyPerUser:   res.MeanEnergyPerUser(),
		TailEnergyPerUser:   res.TotalTailEnergy() / units.MJ(n),
		PC:                  res.PC(),
		PE:                  res.PE(),
	}
}

// Report is the outcome of a framework run.
type Report struct {
	// Mode echoes the configured mode.
	Mode Mode
	// Result is the mode scheduler's run.
	Result ModeResult
	// Reference is the Default-strategy run on the same workload.
	Reference ModeResult
	// Phi is the derived RTMA energy budget (ModeRTM only).
	Phi units.MJ
	// Threshold is RTMA's derived signal admission threshold (ModeRTM).
	Threshold units.DBm
	// Omega is the derived rebuffering bound (ModeEM only).
	Omega units.Seconds
	// V is the Lyapunov weight used (ModeEM only).
	V float64
	// RebufferReduction and EnergyReduction are relative improvements
	// over the reference (positive = better).
	RebufferReduction float64
	EnergyReduction   float64
}

// Run executes the framework in the configured mode.
func Run(cfg Config) (*Report, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	// A Report reads run totals only, so no run keeps a per-slot series.
	cellCfg := cfg.Cell
	cellCfg.Record = cell.RecordTotals
	simulate := func(s sched.Scheduler) (*cell.Result, error) {
		wl, err := workload.Generate(cfg.Workload, rng.New(cfg.Seed))
		if err != nil {
			return nil, err
		}
		sim, err := cell.New(cellCfg, wl, s)
		if err != nil {
			return nil, err
		}
		return sim.Run()
	}

	ref, err := simulate(sched.NewDefault())
	if err != nil {
		return nil, fmt.Errorf("core: reference run: %w", err)
	}
	rep := &Report{Mode: cfg.Mode, Reference: summarize(ref)}

	switch cfg.Mode {
	case ModeRTM:
		budget, err := sched.BudgetForAlpha(ref.TransEnergyPerActiveSlot(), cfg.Alpha)
		if err != nil {
			return nil, err
		}
		rt, err := sched.NewRTMA(sched.RTMAConfig{
			Budget: budget, Radio: cfg.Cell.Radio, RRC: cfg.Cell.RRC,
		})
		if err != nil {
			return nil, err
		}
		res, err := simulate(rt)
		if err != nil {
			return nil, err
		}
		rep.Result = summarize(res)
		rep.Phi = budget
		rep.Threshold = rt.Threshold()

	case ModeEM:
		omega := units.Seconds(float64(ref.PC()) * cfg.Beta)
		rep.Omega = omega
		if cfg.Adaptive {
			ae, err := sched.NewAdaptiveEMA(sched.AdaptiveEMAConfig{
				Omega: omega, RRC: cfg.Cell.RRC,
			})
			if err != nil {
				return nil, err
			}
			res, err := simulate(ae)
			if err != nil {
				return nil, err
			}
			rep.Result = summarize(res)
			rep.V = ae.V() // final adapted weight
			break
		}
		emaRun := func(v float64) (*cell.Result, error) {
			em, err := sched.ByName("ema", sched.Params{V: v, RRC: cfg.Cell.RRC})
			if err != nil {
				return nil, err
			}
			return simulate(em)
		}
		v := cfg.V
		if v == 0 {
			v, err = sched.CalibrateV(cfg.CalibrationSteps, omega, func(v float64) (units.Seconds, error) {
				res, err := emaRun(v)
				if err != nil {
					return 0, err
				}
				return res.PC(), nil
			})
			if err != nil {
				return nil, err
			}
		}
		res, err := emaRun(v)
		if err != nil {
			return nil, err
		}
		rep.Result = summarize(res)
		rep.V = v
	}

	rep.RebufferReduction = reduction(float64(rep.Reference.MeanRebufferPerUser), float64(rep.Result.MeanRebufferPerUser))
	rep.EnergyReduction = reduction(float64(rep.Reference.MeanEnergyPerUser), float64(rep.Result.MeanEnergyPerUser))
	return rep, nil
}

func reduction(baseline, got float64) float64 {
	if baseline == 0 {
		return 0
	}
	return 1 - got/baseline
}
