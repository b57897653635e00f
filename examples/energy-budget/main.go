// Energy-budget example: an operator wants maximum battery savings while
// bounding how much extra stalling users may suffer. It sweeps the EM
// mode's β knob (Ω = β × Default rebuffering) and prints the resulting
// energy/rebuffering frontier, illustrating the Theorem-1 trade-off that
// the Lyapunov weight V controls.
//
//	go run ./examples/energy-budget
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

	// One framework: every beta reuses its Default run and probe runs.
	fw, err := experiments.NewFramework(cellCfg, wl, 7)
	if err != nil {
		log.Fatal(err)
	}
	def, err := fw.Default()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("beta   V        rebuffer/user  energy/user  saving")
	for _, beta := range []float64{0.6, 0.8, 1.0, 1.5, 2.0} {
		res, _, v, err := fw.EM(beta, 0)
		if err != nil {
			log.Fatalf("beta=%v: %v", beta, err)
		}
		fmt.Printf("%-5.1f  %-7.3g  %-13v  %-11v  %.1f%%\n",
			beta, v,
			res.MeanRebufferPerUser(),
			res.MeanEnergyPerUser(),
			(1-float64(res.MeanEnergyPerUser())/float64(def.MeanEnergyPerUser()))*100)
	}
	fmt.Println("\nLarger beta loosens the stall bound, letting EMA defer more")
	fmt.Println("bytes to strong-signal slots and avoid RRC tail energy.")
}
