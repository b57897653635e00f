// Rebuffer-SLA example: a video service has a playback-smoothness SLA and
// a device energy budget. It sweeps the RTM mode's α knob (Φ = α × Default
// energy) and reports, for each budget, the rebuffering RTMA achieves and
// the signal-strength admission threshold φ it derives from Eq. (12).
//
//	go run ./examples/rebuffer-sla
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
	cellCfg := cell.PaperConfig()
	cellCfg.Capacity = 8000
	wl := workload.PaperDefaults(16)
	wl.SizeMin = 20 * units.Megabyte
	wl.SizeMax = 40 * units.Megabyte

	// One framework: every alpha reuses its Default run.
	fw, err := experiments.NewFramework(cellCfg, wl, 7)
	if err != nil {
		log.Fatal(err)
	}
	def, err := fw.Default()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("alpha  Phi(mJ)  threshold  rebuffer/user  vs Default")
	for _, alpha := range []float64{0.8, 0.9, 1.0, 1.1, 1.2} {
		res, phi, threshold, err := fw.RTM(alpha)
		if err != nil {
			log.Fatalf("alpha=%v: %v", alpha, err)
		}
		fmt.Printf("%-5.1f  %-7.0f  %-9v  %-13v  %+.1f%%\n",
			alpha, float64(phi), threshold,
			res.MeanRebufferPerUser(),
			(float64(res.MeanRebufferPerUser())/float64(def.MeanRebufferPerUser())-1)*100)
	}
	fmt.Println("\nTighter budgets (smaller alpha) raise the admission threshold:")
	fmt.Println("weak-signal slots are skipped to save energy, at some stall cost.")
}
