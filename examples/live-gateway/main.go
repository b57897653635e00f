// Live-gateway example: run the Fig. 1 framework as an in-process
// pipeline (Data Receiver → Information Collector → Scheduler → Data
// Transmitter) with the EM-mode scheduler, three attached devices on
// different channels, and end-to-end payload verification.
//
//	go run ./examples/live-gateway
package main

import (
	"fmt"
	"log"

	"jointstream/internal/core"
	"jointstream/internal/gateway"
	"jointstream/internal/radio"
	"jointstream/internal/rng"
	"jointstream/internal/signal"
	"jointstream/internal/units"
)

func main() {
	// EM-mode scheduler with an explicit Lyapunov weight, embedded in a
	// live pipeline instead of the simulator.
	s, err := core.NewScheduler(core.Config{Mode: core.ModeEM, V: 0.2})
	if err != nil {
		log.Fatal(err)
	}
	gw, err := gateway.New(gateway.Config{
		Tau:      1,
		Unit:     100,
		Capacity: 4000,
		Radio:    radio.Paper3G(),
		QueueCap: 20000,
	}, s)
	if err != nil {
		log.Fatal(err)
	}

	// Three devices: steady, fading, and bursty channels.
	src := rng.New(11)
	sine, err := signal.NewStatelessSine(signal.SineConfig{
		Bounds: signal.DefaultBounds, PeriodSlots: 60, NoiseStdDBm: 10,
	}, src.Uint64())
	if err != nil {
		log.Fatal(err)
	}
	ge, err := signal.NewGilbertElliott(signal.GilbertElliottConfig{
		Bounds: signal.DefaultBounds, Good: -60, Bad: -100,
		PGoodToBad: 0.1, PBadToGood: 0.3, JitterStd: 5,
	}, src)
	if err != nil {
		log.Fatal(err)
	}
	traces := []signal.Trace{
		signal.Constant(-65, signal.DefaultBounds),
		sine,
		ge,
	}
	names := []string{"steady(-65dBm)", "sine-fading", "gilbert-elliott"}

	endpoints := make([]*gateway.LocalEndpoint, len(traces))
	for i, tr := range traces {
		ep, err := gateway.NewLocalEndpoint(tr, 400, true)
		if err != nil {
			log.Fatal(err)
		}
		srcData, err := gateway.NewPatternSource(3000) // 3 MB video each
		if err != nil {
			log.Fatal(err)
		}
		if _, err := gw.Attach(ep, srcData); err != nil {
			log.Fatal(err)
		}
		endpoints[i] = ep
	}

	for slot := 0; slot < 200 && !gw.AllDone(); slot++ {
		if _, err := gw.Step(); err != nil {
			log.Fatal(err)
		}
		for _, ep := range endpoints {
			ep.Advance()
		}
		if slot%10 == 9 {
			fmt.Printf("slot %3d:", slot+1)
			for i := range endpoints {
				st, err := gw.StatsFor(i)
				if err != nil {
					log.Fatal(err)
				}
				fmt.Printf("  %s %v/%v", names[i], st.SentKB, units.KB(3000))
			}
			fmt.Println()
		}
	}

	fmt.Println()
	for i, ep := range endpoints {
		payload := ep.Payload()
		if err := gateway.Verify(payload); err != nil {
			log.Fatalf("%s: corrupt payload: %v", names[i], err)
		}
		fmt.Printf("%-18s received %7d bytes, payload verified\n", names[i], len(payload))
	}
	fmt.Printf("gateway finished in %d slots\n", gw.Slot())
}
