// Battery-life example: translate the EM mode's energy savings into the
// terms the paper motivates — battery endurance. It runs Default and EMA
// on the same workload, then projects the per-video battery cost and the
// continuous-streaming hours a 2015-class phone gets under each.
//
//	go run ./examples/battery-life
package main

import (
	"fmt"
	"log"

	"jointstream/internal/cell"
	"jointstream/internal/experiments"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// The device is a 2015-class phone, the class the paper's measurements
// come from: a 2600 mAh, 3.8 V pack (Galaxy S4/S5 era) and about 1 W of
// screen and decode draw while a video plays. The battery is an energy
// reservoir (mAh × V), and the radio energy the simulator reports is the
// marginal drain streaming adds on top of that baseline.
const (
	packmAh              = 2600
	packVolts            = 3.8
	packMJ               = packmAh * 3.6 * packVolts * 1000 // mAh to coulombs, times V, in mJ
	baselineMW  units.MW = 1000
	secondsPerH          = 3600
)

func main() {
	cellCfg := cell.PaperConfig()
	cellCfg.Capacity = 8000
	wl := workload.PaperDefaults(16)
	wl.SizeMin = 30 * units.Megabyte
	wl.SizeMax = 50 * units.Megabyte

	fw, err := experiments.NewFramework(cellCfg, wl, 21)
	if err != nil {
		log.Fatal(err)
	}
	def, err := fw.Default()
	if err != nil {
		log.Fatal(err)
	}
	// beta 1.5 allows some extra stalling headroom for maximum savings.
	ema, _, _, err := fw.EM(1.5, 0)
	if err != nil {
		log.Fatal(err)
	}

	// A video's cost is its radio energy plus the baseline drain over the
	// run's whole horizon, as a share of a full charge.
	cost := func(r *cell.Result) (radio, total units.MJ) {
		radio = r.MeanEnergyPerUser()
		return radio, radio + baselineMW.Energy(units.Seconds(r.Slots))
	}
	defRadio, defTotal := cost(def)
	emaRadio, emaTotal := cost(ema)

	fmt.Printf("device: %d mAh @ %.1f V (%.1f kJ), baseline draw %v\n",
		packmAh, packVolts, packMJ/1e6, baselineMW)
	fmt.Printf("\nper-video battery cost (radio + screen/decode):\n")
	fmt.Printf("  Default: %.2f%% of a charge (radio %v)\n", float64(defTotal)/packMJ*100, defRadio)
	fmt.Printf("  EMA:     %.2f%% of a charge (radio %v)\n", float64(emaTotal)/packMJ*100, emaRadio)
	fmt.Printf("  -> %.1f extra videos per charge\n", packMJ/float64(emaTotal)-packMJ/float64(defTotal))

	// Continuous-streaming projection from average radio power: PE is mJ
	// per user-slot, which at tau = 1 s is mW.
	hours := func(radio units.MW) float64 { return packMJ / float64(radio+baselineMW) / secondsPerH }
	defPower, emaPower := units.MW(float64(def.PE())), units.MW(float64(ema.PE()))
	fmt.Printf("\ncontinuous streaming on one charge:\n")
	fmt.Printf("  Default: %.1f h (avg radio power %v)\n", hours(defPower), defPower)
	fmt.Printf("  EMA:     %.1f h (avg radio power %v)\n", hours(emaPower), emaPower)
	fmt.Printf("\n(EMA stall cost: %v vs Default %v per user)\n",
		ema.MeanRebufferPerUser(), def.MeanRebufferPerUser())
}
