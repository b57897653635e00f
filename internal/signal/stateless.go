package signal

import (
	"fmt"
	"math"

	"jointstream/internal/rng"
	"jointstream/internal/units"
)

// This file implements the memoless variant of the paper's sine channel.
// The memoizing sineTrace is the right default for figure-scale runs: a
// prewarmed memo turns every At into an array read. But the memo is
// O(horizon) per user — at fleet scale (10⁶ users × 10⁴ slots) that is
// tens of gigabytes of signal state before the simulator even starts, and
// it is exactly the O(users × horizon) footprint the tiled link tables
// exist to avoid. statelessSine trades the array read for a recompute:
// At is a pure function of (config, seed, slot) with zero retained state,
// so a million traces cost a million small structs, full stop.

// statelessSineSalt separates the trace's noise stream from other
// Hash3-keyed draw streams (forecast noise, site shadowing).
const statelessSineSalt = 0x73696E65 // "sine"

// statelessSine is the paper's sine-plus-noise channel as a pure function
// of (seed, slot): no memo, no generator state, O(1) memory regardless of
// horizon. The noise deviate for slot n is derived by keying a fresh
// SplitMix64 stream with rng.Hash3(seed, n, salt), so reads are
// deterministic and order-independent without retaining a sequence.
//
// The draws differ from the memoized sineTrace's sequential stream, so
// the two models produce different (equally valid) noise realizations;
// paper-figure workloads keep NewSine, fleet-scale workloads opt in via
// workload.Config.StatelessSignal.
type statelessSine struct {
	cfg  SineConfig
	seed uint64
}

// NewStatelessSine builds the memoless sine channel model. It validates
// the same configuration NewSine does. The returned trace deliberately
// does not implement Prewarmer: there is nothing to prewarm, which is
// what keeps a fleet-scale workload's memory independent of the horizon.
func NewStatelessSine(cfg SineConfig, seed uint64) (Trace, error) {
	if err := cfg.Bounds.validate(); err != nil {
		return nil, err
	}
	if cfg.PeriodSlots <= 0 {
		return nil, fmt.Errorf("signal: sine period must be positive, got %d", cfg.PeriodSlots)
	}
	if cfg.NoiseStdDBm < 0 {
		return nil, fmt.Errorf("signal: negative noise stddev %v", cfg.NoiseStdDBm)
	}
	return statelessSine{cfg: cfg, seed: seed}, nil
}

func (t statelessSine) At(n int) units.DBm {
	if n < 0 {
		panic(fmt.Sprintf("signal: negative slot %d", n))
	}
	return t.value(n)
}

// Fill implements Filler.
func (t statelessSine) Fill(dst []units.DBm, from int) {
	if from < 0 {
		panic(fmt.Sprintf("signal: negative slot %d", from))
	}
	for k := range dst {
		dst[k] = t.value(from + k)
	}
}

// value is the one evaluation At and Fill share.
func (t statelessSine) value(n int) units.DBm {
	b := t.cfg.Bounds
	base := float64(b.Mid()) + b.Amplitude()*math.Sin(2*math.Pi*float64(n)/float64(t.cfg.PeriodSlots)+t.cfg.Phase)
	if t.cfg.NoiseStdDBm > 0 {
		base += t.cfg.NoiseStdDBm * rng.NormAt(rng.Hash3(t.seed, uint64(n), statelessSineSalt))
	}
	return b.clamp(base)
}
