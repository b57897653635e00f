// Command jstream-trace generates and inspects signal-strength traces,
// along with the throughput and per-byte energy each sample implies under
// the paper's Eq. (24) radio model.
//
// Usage:
//
//	jstream-trace -model sine -slots 20
//	jstream-trace -model walk -step 5 -slots 100 -stats
//	jstream-trace -model ge -slots 50 -seed 9
package main

import (
	"flag"
	"fmt"
	"os"

	"jointstream/internal/metrics"
	"jointstream/internal/radio"
	"jointstream/internal/rng"
	"jointstream/internal/signal"
	"jointstream/internal/units"
)

func main() {
	var (
		model  = flag.String("model", "sine", "trace model: sine|walk|ge|const")
		slots  = flag.Int("slots", 30, "number of slots to emit")
		seed   = flag.Uint64("seed", 1, "random seed")
		period = flag.Int("period", 600, "sine period in slots")
		noise  = flag.Float64("noise", 30, "sine noise stddev (dBm)")
		step   = flag.Float64("step", 3, "random-walk step stddev (dBm)")
		level  = flag.Float64("level", -80, "constant level (dBm)")
		stats  = flag.Bool("stats", false, "print summary statistics instead of samples")
		out    = flag.String("out", "", "export the trace to this file (slot,dBm CSV)")
		in     = flag.String("in", "", "replay a trace from this file instead of generating one")
	)
	flag.Parse()
	if err := run(*model, *slots, *seed, *period, *noise, *step, *level, *stats, *out, *in); err != nil {
		fmt.Fprintln(os.Stderr, "jstream-trace:", err)
		os.Exit(1)
	}
}

func run(model string, slots int, seed uint64, period int, noise, step, level float64, stats bool, out, in string) error {
	if slots <= 0 {
		return fmt.Errorf("non-positive slot count %d", slots)
	}
	src := rng.New(seed)
	var (
		tr  signal.Trace
		err error
	)
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		tr, err = signal.ReadTrace(f, signal.DefaultBounds)
		if err != nil {
			return err
		}
		return emit(tr, slots, stats, out, "file:"+in)
	}
	switch model {
	case "sine":
		tr, err = signal.NewStatelessSine(signal.SineConfig{
			Bounds: signal.DefaultBounds, PeriodSlots: period, NoiseStdDBm: noise,
		}, src.Uint64())
	case "walk":
		tr, err = signal.NewRandomWalk(signal.RandomWalkConfig{
			Bounds: signal.DefaultBounds, Start: -80, StepStd: step,
		}, src)
	case "ge":
		tr, err = signal.NewGilbertElliott(signal.GilbertElliottConfig{
			Bounds: signal.DefaultBounds, Good: -60, Bad: -100,
			PGoodToBad: 0.05, PBadToGood: 0.1, JitterStd: 3,
		}, src)
	case "const":
		tr = signal.Constant(units.DBm(level), signal.DefaultBounds)
	default:
		return fmt.Errorf("unknown model %q", model)
	}
	if err != nil {
		return err
	}
	return emit(tr, slots, stats, out, model)
}

// emit prints or exports the trace.
func emit(tr signal.Trace, slots int, stats bool, out, label string) error {
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := signal.WriteTrace(f, tr, slots); err != nil {
			return err
		}
		fmt.Printf("wrote %d samples of %s to %s\n", slots, label, out)
		return nil
	}
	rm := radio.Paper3G()
	if stats {
		sample := make([]float64, slots)
		for n := 0; n < slots; n++ {
			sample[n] = float64(tr.At(n))
		}
		s, err := metrics.Summarize(sample)
		if err != nil {
			return err
		}
		fmt.Printf("model=%s slots=%d\n", label, slots)
		fmt.Printf("mean=%.1f dBm  std=%.1f  min=%.1f  p50=%.1f  p90=%.1f  max=%.1f\n",
			s.Mean, s.Std, s.Min, s.P50, s.P90, s.Max)
		return nil
	}
	fmt.Printf("%5s  %8s  %10s  %10s\n", "slot", "dBm", "KB/s", "mJ/KB")
	for n := 0; n < slots; n++ {
		sig := tr.At(n)
		fmt.Printf("%5d  %8.1f  %10.1f  %10.3f\n",
			n, float64(sig),
			float64(rm.Throughput.Throughput(sig)),
			float64(rm.Power.EnergyPerKB(sig)))
	}
	return nil
}
