// Command jstream-deploy simulates the framework across a multi-cell
// deployment: K sites with configurable capacities and path-loss offsets,
// users attached by a selectable policy, and all cells simulated
// concurrently.
//
// Usage:
//
//	jstream-deploy -sites 3 -users 30 -policy strongest -sched ema
//	jstream-deploy -sites 2 -policy leastloaded -offsets=-0,-8
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"jointstream/internal/cell"
	"jointstream/internal/deploy"
	"jointstream/internal/rng"
	"jointstream/internal/sched"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

func main() {
	var (
		sites     = flag.Int("sites", 3, "number of base stations")
		users     = flag.Int("users", 24, "number of streaming users")
		avgSizeMB = flag.Float64("size", 100, "average video size in MB")
		policy    = flag.String("policy", "strongest", "attachment policy: strongest|roundrobin|leastloaded")
		schedName = flag.String("sched", "ema", "per-site scheduler: "+sched.Names)
		capacity  = flag.Float64("capacity", 8000, "per-site capacity in KB/s")
		offsets   = flag.String("offsets", "", "comma-separated per-site dBm offsets (default 0,-3,-6,...)")
		shadow    = flag.Float64("shadow", 4, "per-site shadowing stddev (dB)")
		seed      = flag.Uint64("seed", 1, "workload seed")
		v         = flag.Float64("v", 0.2, "EMA Lyapunov weight")
		budget    = flag.Float64("budget", 950, "RTMA energy budget (mJ)")
	)
	flag.Parse()
	if err := run(*sites, *users, *avgSizeMB, *policy, *schedName, *capacity, *offsets, *shadow, *seed, *v, *budget); err != nil {
		fmt.Fprintln(os.Stderr, "jstream-deploy:", err)
		os.Exit(1)
	}
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

func run(sites, users int, avgSizeMB float64, policyName, schedName string, capacity float64, offsetSpec string, shadow float64, seed uint64, v, budget float64) error {
	if sites <= 0 {
		return fmt.Errorf("need at least one site")
	}
	policy, err := parsePolicy(policyName)
	if err != nil {
		return err
	}
	offs, err := parseOffsets(offsetSpec, sites)
	if err != nil {
		return err
	}

	siteCell := cell.PaperConfig()
	siteCell.Capacity = units.KBps(capacity)
	cfg := deploy.Config{Policy: policy}
	for i := 0; i < sites; i++ {
		cfg.Sites = append(cfg.Sites, deploy.Site{
			Name:         fmt.Sprintf("site-%d", i),
			Cell:         siteCell,
			SignalOffset: units.DBm(offs[i]),
			ShadowStd:    shadow,
		})
	}

	newSched := func() (sched.Scheduler, error) {
		return sched.ByName(schedName, sched.Params{
			Budget: units.MJ(budget), V: v, Radio: siteCell.Radio, RRC: siteCell.RRC,
		})
	}

	wl := workload.PaperDefaults(users).WithAvgSize(units.KB(avgSizeMB * 1000))
	sessions, err := workload.Generate(wl, rng.New(seed))
	if err != nil {
		return err
	}
	res, err := deploy.Run(context.Background(), cfg, sessions, newSched)
	if err != nil {
		return err
	}

	counts := make([]int, sites)
	for _, pl := range res.Placements {
		counts[pl.Site]++
	}
	fmt.Printf("policy=%s scheduler=%s sites=%d users=%d\n", policy, schedName, sites, users)
	for i, site := range cfg.Sites {
		line := fmt.Sprintf("%-8s users=%-3d offset=%v", site.Name, counts[i], site.SignalOffset)
		if r := res.Fleet.PerSite[i]; r.Users > 0 {
			line += fmt.Sprintf("  slots=%-5d rebuffer=%v energy=%v",
				r.Slots, r.Rebuffer, r.Energy)
		} else {
			line += "  (no users)"
		}
		fmt.Println(line)
	}
	mis, total := deploy.Misassignment(cfg, sessions, res)
	fmt.Printf("fleet: rebuffer=%v energy=%v handover-pressure=%.1f%%\n",
		res.TotalRebuffer(), res.TotalEnergy(), 100*float64(mis)/float64(max(total, 1)))
	return nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
