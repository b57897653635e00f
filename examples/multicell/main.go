// Multicell example: run the framework across a three-site deployment.
// Each base station is scheduled independently by its own EMA instance
// (the paper's gateway "manages the resources of each BS independently"),
// the cells are simulated concurrently, and the example compares the
// attachment policies: strongest-signal, round-robin and least-loaded.
//
//	go run ./examples/multicell
package main

import (
	"context"
	"fmt"
	"log"

	"jointstream/internal/cell"
	"jointstream/internal/deploy"
	"jointstream/internal/rng"
	"jointstream/internal/rrc"
	"jointstream/internal/sched"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

func main() {
	siteCell := cell.PaperConfig()
	siteCell.Capacity = 4000 // each site carries ~1/3 of the fleet demand

	cfg := deploy.Config{
		Sites: []deploy.Site{
			{Name: "center", Cell: siteCell, SignalOffset: 0, ShadowStd: 4},
			{Name: "east", Cell: siteCell, SignalOffset: -6, ShadowStd: 4},
			{Name: "west", Cell: siteCell, SignalOffset: -9, ShadowStd: 4},
		},
	}

	wlCfg := workload.PaperDefaults(18)
	wlCfg.SizeMin = 30 * units.Megabyte
	wlCfg.SizeMax = 60 * units.Megabyte

	newEMA := func() (sched.Scheduler, error) {
		return sched.NewEMA(sched.EMAConfig{V: 0.2, RRC: rrc.Paper3G()})
	}

	fmt.Println("policy            users/site      rebuffer(total)  energy(total)  handover-pressure")
	for _, policy := range []deploy.Policy{deploy.StrongestSignal, deploy.RoundRobin, deploy.LeastLoaded} {
		cfg.Policy = policy
		sessions, err := workload.Generate(wlCfg, rng.New(99))
		if err != nil {
			log.Fatal(err)
		}
		res, err := deploy.Run(context.Background(), cfg, sessions, newEMA)
		if err != nil {
			log.Fatal(err)
		}
		counts := make([]int, len(cfg.Sites))
		for _, pl := range res.Placements {
			counts[pl.Site]++
		}
		mis, total := deploy.Misassignment(cfg, sessions, res)
		pressure := float64(mis) / float64(total)
		fmt.Printf("%-16s  %-14s  %-15v  %-13v  %.1f%%\n",
			policy, fmt.Sprintf("%v", counts), res.TotalRebuffer(), res.TotalEnergy(), pressure*100)
	}
	fmt.Println("\nStrongest-signal piles users onto the best site (cheap bytes but")
	fmt.Println("contention); least-loaded spreads demand; handover pressure is the")
	fmt.Println("share of slots where another site was >=3 dB stronger.")
}
