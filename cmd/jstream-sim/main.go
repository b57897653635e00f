// Command jstream-sim runs one multi-user streaming simulation and prints
// per-user and aggregate results.
//
// Usage:
//
//	jstream-sim -sched rtma -users 20 -alpha 1.0
//	jstream-sim -sched ema -users 40 -beta 0.8 -size 350
//	jstream-sim -sched onoff -users 30 -seed 7 -verbose
//
// Schedulers: default, rtma, ema, throttling, onoff, salsa, estreamer,
// propfair, predictive. RTMA derives its energy budget Φ from a Default
// reference run scaled by -alpha; EMA calibrates its Lyapunov weight V
// against -beta times the Default rebuffering unless -v is given
// (-adaptive switches to the online controller). The predictive
// scheduler compiles the run's link table up front and reads a
// -lookahead-slot forecast window from it, corrupted by -forecast-err
// relative noise (0 = omniscient table reads, ≥1 = no information,
// degenerating to the Default baseline). -spec replays explicit
// sessions from a JSON workload file.
package main

import (
	"flag"
	"fmt"
	"os"

	"jointstream/internal/cell"
	"jointstream/internal/experiments"
	"jointstream/internal/metrics"
	"jointstream/internal/rng"
	"jointstream/internal/sched"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

func main() {
	var (
		schedName = flag.String("sched", "rtma", "scheduler: "+sched.Names+"|predictive")
		users     = flag.Int("users", 20, "number of streaming users")
		avgSizeMB = flag.Float64("size", 375, "average video size in MB")
		alpha     = flag.Float64("alpha", 1.0, "RTMA energy budget factor (x Default energy)")
		beta      = flag.Float64("beta", 1.0, "EMA rebuffering bound factor (x Default rebuffering)")
		vFlag     = flag.Float64("v", 0, "EMA Lyapunov weight (0 = calibrate from -beta)")
		adaptive  = flag.Bool("adaptive", false, "use the online AdaptiveEMA instead of offline V calibration (ema only)")
		seed      = flag.Uint64("seed", 1, "workload random seed")
		capacity  = flag.Float64("capacity", 20000, "base-station capacity in KB/s")
		slots     = flag.Int("slots", 10000, "maximum slots")
		verbose   = flag.Bool("verbose", false, "print per-user breakdown")
		specPath  = flag.String("spec", "", "load explicit sessions from a JSON workload spec instead of generating them")
		lookahead = flag.Int("lookahead", 8, "predictive forecast window K in slots (predictive only)")
		fcErr     = flag.Float64("forecast-err", 0, "predictive forecast relative error level (predictive only)")
	)
	flag.Parse()
	if err := run(*schedName, *users, *avgSizeMB, *alpha, *beta, *vFlag, *adaptive, *seed, *capacity, *slots, *verbose, *specPath, *lookahead, *fcErr); err != nil {
		fmt.Fprintln(os.Stderr, "jstream-sim:", err)
		os.Exit(1)
	}
}

func run(schedName string, users int, avgSizeMB, alpha, beta, vFlag float64, adaptive bool, seed uint64, capacity float64, slots int, verbose bool, specPath string, lookahead int, fcErr float64) error {
	cfg := cell.PaperConfig()
	cfg.Capacity = units.KBps(capacity)
	cfg.MaxSlots = slots
	wl := workload.PaperDefaults(users).WithAvgSize(units.KB(avgSizeMB * 1000))

	// The two framework modes run the figures' protocol, so the derived
	// parameters (Φ, V) are reported alongside the results. (Spec-driven
	// sessions run baselines directly; the framework generates its own.)
	if specPath == "" && (schedName == "rtma" || schedName == "ema") {
		fw, err := experiments.NewFramework(cfg, wl, seed)
		if err != nil {
			return err
		}
		return printMode(fw, schedName, alpha, beta, vFlag, adaptive)
	}

	var sessions []*workload.Session
	var err error
	if specPath != "" {
		f, err := os.Open(specPath)
		if err != nil {
			return err
		}
		spec, err := workload.ReadSpec(f)
		f.Close()
		if err != nil {
			return err
		}
		sessions, err = spec.Sessions()
		if err != nil {
			return err
		}
	} else {
		sessions, err = workload.Generate(wl, rng.New(seed))
		if err != nil {
			return err
		}
	}
	var s sched.Scheduler
	if schedName == "predictive" {
		// The forecast reads the run's own compiled link table, which is
		// also handed to the engine so the tick path replays the exact
		// columns the prediction was drawn from.
		lt, err := cell.CompileLink(cfg, sessions)
		if err != nil {
			return err
		}
		cfg.Link = lt
		var fc sched.Forecast
		if fcErr == 0 {
			fc = lt.Forecast()
		} else {
			nf, err := cell.NewNoisyForecast(lt, seed, fcErr)
			if err != nil {
				return err
			}
			fc = nf
		}
		s, err = sched.NewPredictive(sched.PredictiveConfig{Lookahead: lookahead, Forecast: fc})
		if err != nil {
			return err
		}
	} else {
		if vFlag == 0 {
			vFlag = 0.2 // spec-driven EMA runs are not calibrated
		}
		s, err = sched.ByName(schedName, sched.Params{Budget: 950, V: vFlag, Radio: cfg.Radio, RRC: cfg.RRC})
		if err != nil {
			return err
		}
	}
	cfg.Record = cell.RecordTotals // printResult reads totals only
	sim, err := cell.New(cfg, sessions, s)
	if err != nil {
		return err
	}
	res, err := sim.Run()
	if err != nil {
		return err
	}
	printResult(res, verbose)
	return nil
}

// printMode runs one framework mode and prints it beside the Default
// reference run: rtma at alpha, or ema at beta (V fixed at v unless 0, or
// adapted online).
func printMode(fw *experiments.Framework, mode string, alpha, beta, v float64, adaptive bool) error {
	var res *cell.Result
	var err error
	if mode == "rtma" {
		var phi units.MJ
		var threshold units.DBm
		if res, phi, threshold, err = fw.RTM(alpha); err != nil {
			return err
		}
		fmt.Println("mode: RTM")
		fmt.Printf("derived budget Phi: %v, admission threshold: %v\n", phi, threshold)
	} else {
		var omega units.Seconds
		if adaptive {
			res, omega, v, err = fw.AdaptiveEM(beta)
		} else {
			res, omega, v, err = fw.EM(beta, v)
		}
		if err != nil {
			return err
		}
		fmt.Println("mode: EM")
		fmt.Printf("rebuffering bound Omega: %v, Lyapunov V: %.4g\n", omega, v)
	}
	ref, err := fw.Default()
	if err != nil {
		return err
	}
	for _, row := range []struct {
		name string
		r    *cell.Result
	}{{"reference (Default)", ref}, {res.SchedulerName, res}} {
		fmt.Printf("%-20s slots=%-5d rebuffer/user=%-10v energy/user=%-10v tail/user=%v\n",
			row.name, row.r.Slots, row.r.MeanRebufferPerUser(), row.r.MeanEnergyPerUser(),
			row.r.TotalTailEnergy()/units.MJ(len(row.r.Users)))
	}
	// Reduction errs only on a zero Default total, which then reads as 0.
	reb, _ := metrics.Reduction(float64(ref.MeanRebufferPerUser()), float64(res.MeanRebufferPerUser()))
	en, _ := metrics.Reduction(float64(ref.MeanEnergyPerUser()), float64(res.MeanEnergyPerUser()))
	fmt.Printf("rebuffer reduction vs Default: %.1f%%\n", reb*100)
	fmt.Printf("energy reduction vs Default:   %.1f%%\n", en*100)
	return nil
}

func printResult(res *cell.Result, verbose bool) {
	fmt.Printf("scheduler: %s\n", res.SchedulerName)
	fmt.Printf("slots: %d\n", res.Slots)
	fmt.Printf("rebuffer/user: %v\n", res.MeanRebufferPerUser())
	fmt.Printf("energy/user: %v (tail %v)\n",
		res.MeanEnergyPerUser(),
		res.TotalTailEnergy()/units.MJ(len(res.Users)))
	fmt.Printf("PC=%v PE=%v\n", res.PC(), res.PE())
	if verbose {
		for i, u := range res.Users {
			fmt.Printf("  user %2d: delivered=%v rebuffer=%v energy=%v done@%d\n",
				i, u.DeliveredKB, u.Rebuffer, u.Energy(), u.CompletionSlot)
		}
	}
}
