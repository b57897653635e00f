// Command jstream-sim runs one multi-user streaming simulation and prints
// per-user and aggregate results, or, with -sites, the same workload over
// a multi-cell deployment.
//
// Usage:
//
//	jstream-sim -sched rtma -users 20 -alpha 1.0
//	jstream-sim -sched ema -users 40 -beta 0.8 -size 350
//	jstream-sim -sched onoff -users 30 -seed 7 -verbose
//	jstream-sim -sites 3 -policy strongest -sched ema -users 30
//	jstream-sim -sites 2 -policy leastloaded -offsets=-0,-8
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
// sessions from a JSON workload file. -sites K ≥ 1 attaches the users to
// K cells of -capacity by -policy, their signals offset by -offsets dBm
// and shadowed by -shadow dB. Spec-driven and fleet runs build baselines
// at the fixed -budget and -v (0 = 0.2).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"jointstream/internal/cell"
	"jointstream/internal/deploy"
	"jointstream/internal/experiments"
	"jointstream/internal/metrics"
	"jointstream/internal/rng"
	"jointstream/internal/sched"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// options are the command's flags.
type options struct {
	sched, spec, policy, offsets                                     string
	users, slots, lookahead, sites                                   int
	avgSizeMB, alpha, beta, v, capacity, forecastErr, budget, shadow float64
	adaptive, verbose                                                bool
	seed                                                             uint64
}

func main() {
	var o options
	flag.StringVar(&o.sched, "sched", "rtma", "scheduler: "+sched.Names+"|predictive")
	flag.IntVar(&o.users, "users", 20, "number of streaming users")
	flag.Float64Var(&o.avgSizeMB, "size", 375, "average video size in MB")
	flag.Float64Var(&o.alpha, "alpha", 1.0, "RTMA energy budget factor (x Default energy)")
	flag.Float64Var(&o.beta, "beta", 1.0, "EMA rebuffering bound factor (x Default rebuffering)")
	flag.Float64Var(&o.v, "v", 0, "EMA Lyapunov weight (0 = calibrate from -beta; 0.2 where nothing calibrates)")
	flag.BoolVar(&o.adaptive, "adaptive", false, "use the online AdaptiveEMA instead of offline V calibration (ema only)")
	flag.Uint64Var(&o.seed, "seed", 1, "workload random seed")
	flag.Float64Var(&o.capacity, "capacity", 20000, "base-station capacity in KB/s (per site with -sites)")
	flag.IntVar(&o.slots, "slots", 10000, "maximum slots")
	flag.BoolVar(&o.verbose, "verbose", false, "print per-user breakdown")
	flag.StringVar(&o.spec, "spec", "", "load explicit sessions from a JSON workload spec instead of generating them")
	flag.IntVar(&o.lookahead, "lookahead", 8, "predictive forecast window K in slots (predictive only)")
	flag.Float64Var(&o.forecastErr, "forecast-err", 0, "predictive forecast relative error level (predictive only)")
	flag.Float64Var(&o.budget, "budget", 950, "RTMA energy budget in mJ where -alpha does not derive it (-spec, -sites)")
	flag.IntVar(&o.sites, "sites", 0, "number of base stations (0 = one cell and no deployment)")
	flag.StringVar(&o.policy, "policy", "strongest", "attachment policy with -sites: strongest|roundrobin|leastloaded")
	flag.StringVar(&o.offsets, "offsets", "", "comma-separated per-site dBm offsets with -sites (default 0,-3,-6,...)")
	flag.Float64Var(&o.shadow, "shadow", 4, "per-site shadowing stddev in dB with -sites")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "jstream-sim:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	cfg := cell.PaperConfig()
	cfg.Capacity = units.KBps(o.capacity)
	cfg.MaxSlots = o.slots
	wl := workload.PaperDefaults(o.users).WithAvgSize(units.KB(o.avgSizeMB * 1000))
	switch {
	case o.sites < 0:
		return fmt.Errorf("negative -sites %d", o.sites)
	case o.sites > 0 && (o.spec != "" || o.sched == "predictive" || o.adaptive):
		return errors.New("-sites runs baselines on generated sessions: not with -spec, -sched predictive or -adaptive")
	case o.sites > 0:
		return runFleet(o, cfg, wl)
	case o.spec == "" && (o.sched == "rtma" || o.sched == "ema"):
		// The two framework modes run the figures' protocol, so the
		// derived parameters (Φ, V) are reported alongside the results.
		// (Spec-driven sessions run baselines directly; the framework
		// generates its own.)
		fw, err := experiments.NewFramework(cfg, wl, o.seed)
		if err != nil {
			return err
		}
		return printMode(fw, o.sched, o.alpha, o.beta, o.v, o.adaptive)
	}

	var sessions []*workload.Session
	var err error
	if o.spec != "" {
		f, err := os.Open(o.spec)
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
		sessions, err = workload.Generate(wl, rng.New(o.seed))
		if err != nil {
			return err
		}
	}
	var s sched.Scheduler
	if o.sched == "predictive" {
		// The forecast reads the run's own compiled link table, which is
		// also handed to the engine so the tick path replays the exact
		// columns the prediction was drawn from.
		lt, err := cell.CompileLink(cfg, sessions)
		if err != nil {
			return err
		}
		cfg.Link = lt
		var fc sched.Forecast
		if o.forecastErr == 0 {
			fc = lt.Forecast()
		} else {
			nf, err := cell.NewNoisyForecast(lt, o.seed, o.forecastErr)
			if err != nil {
				return err
			}
			fc = nf
		}
		s, err = sched.NewPredictive(sched.PredictiveConfig{Lookahead: o.lookahead, Forecast: fc})
		if err != nil {
			return err
		}
	} else if s, err = baseline(o, cfg); err != nil {
		return err
	}
	cfg.Record = cell.RecordTotals // printResult reads totals only
	sim, err := cell.NewOpen(cell.OpenConfig{Cell: cfg, MaxSessions: len(sessions)}, sessions, s)
	if err != nil {
		return err
	}
	res, err := sim.Run(context.Background())
	if err != nil {
		return err
	}
	printResult(res, o.verbose)
	return nil
}

// baseline builds the -sched scheduler at the fixed -budget and -v, whose
// 0 reads as 0.2: nothing calibrates a spec-driven or fleet run.
func baseline(o options, cfg cell.Config) (sched.Scheduler, error) {
	if o.v == 0 {
		o.v = 0.2
	}
	return sched.ByName(o.sched, sched.Params{Budget: units.MJ(o.budget), V: o.v, Radio: cfg.Radio, RRC: cfg.RRC})
}

// runFleet runs the generated sessions over -sites cells of cfg
// (deploy.Run) and prints every site's and the fleet's totals.
func runFleet(o options, cfg cell.Config, wl workload.Config) error {
	policy, err := parsePolicy(o.policy)
	if err != nil {
		return err
	}
	offs, err := parseOffsets(o.offsets, o.sites)
	if err != nil {
		return err
	}
	fleet := deploy.Config{Policy: policy}
	for i, off := range offs {
		fleet.Sites = append(fleet.Sites, deploy.Site{
			Name:         fmt.Sprintf("site-%d", i),
			Cell:         cfg,
			SignalOffset: units.DBm(off),
			ShadowStd:    o.shadow,
		})
	}
	sessions, err := workload.Generate(wl, rng.New(o.seed))
	if err != nil {
		return err
	}
	res, err := deploy.Run(context.Background(), fleet, sessions, func() (sched.Scheduler, error) { return baseline(o, cfg) })
	if err != nil {
		return err
	}

	counts := make([]int, o.sites)
	for _, pl := range res.Placements {
		counts[pl.Site]++
	}
	fmt.Printf("policy=%s scheduler=%s sites=%d users=%d\n", policy, o.sched, o.sites, o.users)
	for i, site := range fleet.Sites {
		line := fmt.Sprintf("%-8s users=%-3d offset=%v", site.Name, counts[i], site.SignalOffset)
		if r := res.Fleet.PerSite[i]; r.Users > 0 {
			line += fmt.Sprintf("  slots=%-5d rebuffer=%v energy=%v", r.Slots, r.Rebuffer, r.Energy)
		} else {
			line += "  (no users)"
		}
		fmt.Println(line)
	}
	mis, total := deploy.Misassignment(fleet, sessions, res)
	fmt.Printf("fleet: rebuffer=%v energy=%v handover-pressure=%.1f%%\n",
		res.TotalRebuffer(), res.TotalEnergy(), 100*float64(mis)/float64(max(total, 1)))
	return nil
}

func parsePolicy(s string) (deploy.Policy, error) {
	switch strings.ToLower(s) {
	case "strongest", "strongest-signal":
		return deploy.StrongestSignal, nil
	case "roundrobin", "round-robin":
		return deploy.RoundRobin, nil
	case "leastloaded", "least-loaded":
		return deploy.LeastLoaded, nil
	default:
		return 0, fmt.Errorf("unknown policy %q", s)
	}
}

// parseOffsets reads one dBm offset per site from s, or 0, -3, -6, … when
// s is empty.
func parseOffsets(s string, sites int) ([]float64, error) {
	out := make([]float64, sites)
	if s == "" {
		for i := range out {
			out[i] = float64(-3 * i)
		}
		return out, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != sites {
		return nil, fmt.Errorf("%d offsets for %d sites", len(parts), sites)
	}
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad offset %q", p)
		}
		out[i] = v
	}
	return out, nil
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
