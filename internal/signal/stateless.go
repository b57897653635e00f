package signal

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"jointstream/internal/rng"
	"jointstream/internal/units"
)

// This file implements the memoless variant of the paper's sine channel.
// The memoizing sineTrace is the right default for figure-scale runs: a
// prewarmed memo turns every At into an array read. But the memo is
// O(horizon) per user — at fleet scale (10⁶ users × 10⁴ slots) that is
// tens of gigabytes of signal state before the simulator even starts, and
// it is exactly the O(users × horizon) footprint the tiled link windows
// exist to avoid. statelessSine trades the array read for a recompute:
// a sample is a pure function of (config, seed, slot) with zero retained
// state, so a million traces cost a million small structs, full stop.
//
// The recompute is a batch kernel, because a serving-mode run draws one
// sample per user per slot and everything else it does is downstream of
// that. Neither half of a sample calls into math per slot:
//
//   - The sine. The period is a whole number of slots, so the angle of
//     slot n is that of m = n mod P, and with m = h·B + l, B ≈ √P,
//     sin(2π·m/P + φ) = sin(θ_h + φ)·cos θ_l + cos(θ_h + φ)·sin θ_l
//     over two read-only tables of about √P entries each, shared by every
//     trace of that period. sin and cos of the trace's own phase are one
//     math.Sincos per call and sin, cos(θ_h + φ) one angle addition per B
//     slots, which leaves two multiplies and an add per slot. The result
//     is exactly periodic — no float64(n) grows with an unbounded horizon.
//   - The noise. Slot n's deviate is rng.NormWord of the word
//     rng.Hash3(seed, n, salt): a ziggurat, one table multiply and one
//     compare for 97 % of words, no Log, Sqrt or Cos.
//
// At and Fill are the same evaluator, run over one slot or many.

// statelessSineSalt separates the trace's noise stream from other
// Hash3-keyed draw streams (forecast noise, site shadowing).
const statelessSineSalt = 0x73696E65 // "sine"

// maxStatelessPeriod bounds the period so that the two sine tables it
// sizes stay within a megabyte; 2³⁰ slots are 34 years of one-second slots.
const maxStatelessPeriod = 1 << 30

// statelessSine is the paper's sine-plus-noise channel as a pure function
// of (seed, slot): no memo, no generator state, O(1) memory regardless of
// horizon, and — because a fleet builds one per user per cell — no more
// than the configuration and the seed, so that building one is a single
// 48-byte allocation and no arithmetic. Everything derived (the phase's
// sine and cosine, the period's tables) is recomputed or looked up per
// call, where a window's worth of slots amortises it.
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
	if cfg.PeriodSlots <= 0 || cfg.PeriodSlots > maxStatelessPeriod {
		return nil, fmt.Errorf("signal: stateless sine period must be in [1, %d], got %d", maxStatelessPeriod, cfg.PeriodSlots)
	}
	if cfg.NoiseStdDBm < 0 {
		return nil, fmt.Errorf("signal: negative noise stddev %v", cfg.NoiseStdDBm)
	}
	return statelessSine{cfg: cfg, seed: seed}, nil
}

func (t statelessSine) At(n int) units.DBm {
	var one [1]units.DBm
	t.Fill(one[:], n)
	return one[0]
}

// Fill implements Filler. It is the one evaluator: first the run's
// standard normals, straight into dst, then one pass per table block
// (sineBlock.fill) that turns each into sine + noise, clamped. What slot n
// gets depends on n alone, never on where the run started, so Fill over
// any window and At agree bit for bit.
func (t statelessSine) Fill(dst []units.DBm, from int) {
	if from < 0 {
		panic(fmt.Sprintf("signal: negative slot %d", from))
	}
	if t.cfg.NoiseStdDBm > 0 {
		rng.Norms(dst, t.seed, uint64(from), statelessSineSalt)
	} else {
		clear(dst)
	}
	b := t.cfg.Bounds
	blk := sineBlock{
		mid: float64(b.mid()), amp: b.amplitude(), noise: t.cfg.NoiseStdDBm,
		lower: float64(b.Min), upper: float64(b.Max),
	}
	tab := sineTableFor(t.cfg.PeriodSlots)
	sinP, cosP := math.Sincos(t.cfg.Phase)
	m := from % tab.period
	h, l := m>>tab.shift, m&(len(tab.lo)-1)
	for len(dst) > 0 {
		// The rest of block h, the slots at θ_h + θ_l for the l that are
		// left; the period's last block may be short.
		hi := tab.hi[h]
		blk.sin, blk.cos = hi.sin*cosP+hi.cos*sinP, hi.cos*cosP-hi.sin*sinP
		lo := tab.lo[l:min(len(tab.lo), tab.period-h<<tab.shift)]
		run := dst[:min(len(dst), len(lo))]
		blk.fill(run, lo)
		dst = dst[len(run):]
		l = 0
		if h++; h == len(tab.hi) {
			h = 0
		}
	}
}

// sineTable holds sin and cos of the angles a period's slots are made of:
// slot m = h·2^shift + l of the period sits at θ_h + θ_l with θ_h =
// 2π·h·2^shift/P in hi and θ_l = 2π·l/P in lo. The block size 2^shift is
// the power of two from √P up, so both tables have O(√P) entries and m
// splits with a shift and a mask. Immutable once published.
type sineTable struct {
	period int
	shift  uint
	hi, lo []sinCos
}

type sinCos struct{ sin, cos float64 }

func newSineTable(period int) *sineTable {
	shift := uint(bits.Len(uint(period-1))+1) / 2
	size := 1 << shift
	hi, lo := make([]sinCos, (period+size-1)/size), make([]sinCos, size)
	for h := range hi {
		hi[h] = sinCosAt(h*size, period)
	}
	for l := range lo {
		lo[l] = sinCosAt(l, period)
	}
	return &sineTable{period: period, shift: shift, hi: hi, lo: lo}
}

// sinCosAt is sin, cos(2π·m/period).
func sinCosAt(m, period int) (sc sinCos) {
	sc.sin, sc.cos = math.Sincos(2 * math.Pi * float64(m) / float64(period))
	return sc
}

// sineTables maps a period to its table. Traces hold no pointer to it —
// that is eight of their 48 bytes — so every call looks its period up,
// and link-window fill workers and the ticking goroutine call
// concurrently: readers load one immutable map, a publisher copies it
// with its table added, under sineTablesMu, and swaps it in. A run has
// one period or a handful, so the copies are few and small.
var (
	sineTables   atomic.Pointer[map[int]*sineTable]
	sineTablesMu sync.Mutex
)

func sineTableFor(period int) *sineTable {
	if m := sineTables.Load(); m != nil {
		if t := (*m)[period]; t != nil {
			return t
		}
	}
	sineTablesMu.Lock()
	defer sineTablesMu.Unlock()
	next := map[int]*sineTable{}
	if m := sineTables.Load(); m != nil {
		if t := (*m)[period]; t != nil {
			return t
		}
		for p, t := range *m {
			next[p] = t
		}
	}
	t := newSineTable(period)
	next[period] = t
	sineTables.Store(&next)
	return t
}
