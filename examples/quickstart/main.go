// Quickstart: run the two-mode framework on a small multi-user scenario
// and print the achieved rebuffering/energy trade-off against the Default
// greedy strategy.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"jointstream/internal/cell"
	"jointstream/internal/experiments"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

func main() {
	// A 10-user cell with ~35 MB videos keeps the demo under a second;
	// drop these overrides to simulate the paper's full 250-500 MB
	// workload.
	cellCfg := cell.PaperConfig()
	cellCfg.Capacity = 5000 // 5 MB/s shared downlink
	wl := workload.PaperDefaults(10)
	wl.SizeMin = 25 * units.Megabyte
	wl.SizeMax = 45 * units.Megabyte

	fw, err := experiments.NewFramework(cellCfg, wl, 42)
	if err != nil {
		log.Fatal(err)
	}
	def, err := fw.Default()
	if err != nil {
		log.Fatal(err)
	}

	rtma, phi, threshold, err := fw.RTM(1) // Phi = 1 x Default energy
	if err != nil {
		log.Fatalf("RTM mode: %v", err)
	}
	fmt.Println("== RTM mode (RTMA) ==")
	fmt.Printf("energy budget Phi=%v -> admission threshold %v\n", phi, threshold)
	compare(def, rtma)

	ema, omega, v, err := fw.EM(1, 0) // Omega = 1 x Default rebuffering, V calibrated
	if err != nil {
		log.Fatalf("EM mode: %v", err)
	}
	fmt.Println("== EM mode (EMA) ==")
	fmt.Printf("rebuffering bound Omega=%v -> Lyapunov V=%.3g\n", omega, v)
	compare(def, ema)
}

// compare prints a mode's run beside the Default run and the change.
func compare(def, res *cell.Result) {
	for _, r := range []*cell.Result{def, res} {
		fmt.Printf("%-18s rebuffer/user=%-8v energy/user=%v\n",
			r.SchedulerName+":", r.MeanRebufferPerUser(), r.MeanEnergyPerUser())
	}
	fmt.Printf("rebuffering %+.1f%%, energy %+.1f%% vs Default\n\n",
		change(float64(def.MeanRebufferPerUser()), float64(res.MeanRebufferPerUser())),
		change(float64(def.MeanEnergyPerUser()), float64(res.MeanEnergyPerUser())))
}

// change is got's change against ref, in percent.
func change(ref, got float64) float64 {
	return (got/ref - 1) * 100
}
