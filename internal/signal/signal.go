// Package signal models per-user received signal strength (RSSI) over the
// slotted timeline of the simulator.
//
// The paper (§VI) drives its evaluation with a sine-shaped signal in
// [−110, −50] dBm plus 30 dBm white Gaussian noise, with a distinct phase
// shift per user. That model is implemented by Sine; additional generators
// (random walk, Gilbert–Elliott two-state Markov, constant, and replayed
// slices) are provided so that the algorithms can be exercised under
// qualitatively different channel dynamics.
//
// All generators are deterministic functions of their configuration and an
// explicit rng.Source, and all clamp their output to a configured dBm
// range, mirroring the bounded RSSI values a modem reports.
package signal

import (
	"fmt"
	"math"

	"jointstream/internal/rng"
	"jointstream/internal/units"
)

// Trace produces the signal strength of one user at each slot. At always
// returns a value within the trace's configured bounds. Implementations
// must be deterministic: calling At twice with the same slot returns the
// same value.
type Trace interface {
	// At returns the RSSI for slot n (n >= 0).
	At(n int) units.DBm
}

// Prewarmer is implemented by traces that memoize their stochastic
// sequence lazily. Prewarm(slots) extends the memo to cover slots
// [0, slots) with a single exactly-sized allocation, so hot callers (the
// simulator's per-slot loop) never pay the append-doubling churn of
// growing the memo one slot at a time. Prewarming never changes the
// values a trace returns — the sequence is generated in the same slot
// order either way — and once the memo covers a prefix, At, Fill and
// Prewarm inside it write nothing: simulators sharing prewarmed sessions
// read them concurrently.
type Prewarmer interface {
	Prewarm(slots int)
}

// Filler is implemented by traces that can produce a run of consecutive
// slots in one call. Fill(dst, from) stores At(from+k) in dst[k] for
// every k, bit for bit, and leaves the trace in the state those At calls
// would: a memoizing trace grows its memo no further than
// At(from+len(dst)-1) does. The link-window fill calls it once per user
// per window in place of one interface dispatch per user-slot.
type Filler interface {
	Fill(dst []units.DBm, from int)
}

// Fill stores t.At(from+k) in dst[k] for every k, through the trace's
// Filler when it has one and by calling At otherwise.
func Fill(t Trace, dst []units.DBm, from int) {
	if f, ok := t.(Filler); ok {
		f.Fill(dst, from)
		return
	}
	for k := range dst {
		dst[k] = t.At(from + k)
	}
}

// Bounds is the inclusive dBm range to which generated signals are clamped.
type Bounds struct {
	Min, Max units.DBm
}

// DefaultBounds matches the paper's evaluation range of −110 to −50 dBm.
var DefaultBounds = Bounds{Min: -110, Max: -50}

func (b Bounds) clamp(v float64) units.DBm {
	if v < float64(b.Min) {
		return b.Min
	}
	if v > float64(b.Max) {
		return b.Max
	}
	return units.DBm(v)
}

// mid returns the center of the range.
func (b Bounds) mid() units.DBm { return (b.Min + b.Max) / 2 }

// amplitude returns half the width of the range.
func (b Bounds) amplitude() float64 { return float64(b.Max-b.Min) / 2 }

func (b Bounds) validate() error {
	if b.Max < b.Min {
		return fmt.Errorf("signal: bounds max %v < min %v", b.Max, b.Min)
	}
	return nil
}

// SineConfig parameterizes the paper's sine-plus-noise channel model.
type SineConfig struct {
	Bounds Bounds
	// PeriodSlots is the sine period in slots. The paper does not publish a
	// value; 600 slots (10 minutes at τ=1 s) gives a few full fades per
	// video session. Must be > 0.
	PeriodSlots int
	// Phase is the per-user phase shift in radians.
	Phase float64
	// NoiseStdDBm is the standard deviation of the additive white Gaussian
	// noise. The paper's "30 dBm white Gaussian noise intensity" is treated
	// as the noise amplitude; we use sigma = intensity/3 by convention so
	// ~99.7% of deviations stay within the stated intensity. Callers can
	// set any value, including 0 for a pure sine.
	NoiseStdDBm float64
}

// sineTrace is the paper's channel model: a clamped sine sweep across the
// dBm range with additive white Gaussian noise. Like every memoizing trace
// of this package it holds one memo of finished values, grown in slot
// order by extend — one src.Norm per slot, whoever asks and in whatever
// order — so At is a pure function of the slot, and At or Fill inside the
// memo is a read that touches nothing else.
type sineTrace struct {
	cfg  SineConfig
	src  *rng.Source
	vals []units.DBm
}

// NewSine builds the sine channel model. An independent child of src seeds
// the trace's noise stream, so multiple traces built from one parent source
// have decorrelated noise.
func NewSine(cfg SineConfig, src *rng.Source) (Trace, error) {
	if err := cfg.Bounds.validate(); err != nil {
		return nil, err
	}
	if cfg.PeriodSlots <= 0 {
		return nil, fmt.Errorf("signal: sine period must be positive, got %d", cfg.PeriodSlots)
	}
	if cfg.NoiseStdDBm < 0 {
		return nil, fmt.Errorf("signal: negative noise stddev %v", cfg.NoiseStdDBm)
	}
	return &sineTrace{cfg: cfg, src: src.Split()}, nil
}

func (t *sineTrace) At(n int) units.DBm {
	checkSlot(n)
	if n >= len(t.vals) {
		t.extend(n + 1)
	}
	return t.vals[n]
}

// Fill implements Filler: a copy out of the memo, extended first exactly
// as far as At(from+len(dst)-1) would extend it.
func (t *sineTrace) Fill(dst []units.DBm, from int) {
	checkSlot(from)
	if len(dst) == 0 {
		return
	}
	if end := from + len(dst); end > len(t.vals) {
		t.extend(end)
	}
	copy(dst, t.vals[from:])
}

// Prewarm implements Prewarmer.
func (t *sineTrace) Prewarm(slots int) {
	if slots > len(t.vals) {
		t.vals = reserve(t.vals, slots)
		t.extend(slots)
	}
}

// extend appends slots [len(vals), n) to the memo. The two float
// expressions are the model's bit-locked definition — the figures'
// baseline and TestMemoizedStreamsGolden pin every bit of them.
func (t *sineTrace) extend(n int) {
	b := t.cfg.Bounds
	mid, amp := float64(b.mid()), b.amplitude()
	period, phase, sigma := float64(t.cfg.PeriodSlots), t.cfg.Phase, t.cfg.NoiseStdDBm
	for i := len(t.vals); i < n; i++ {
		base := mid + amp*math.Sin(2*math.Pi*float64(i)/period+phase)
		t.vals = append(t.vals, b.clamp(base+sigma*t.src.Norm()))
	}
}

// checkSlot panics on a negative slot, a caller's bug.
func checkSlot(n int) {
	if n < 0 {
		panic(fmt.Sprintf("signal: negative slot %d", n))
	}
}

// reserve returns vals with room for n values, moved at most once into one
// exactly-sized allocation — Prewarmer's contract for every memo.
func reserve(vals []units.DBm, n int) []units.DBm {
	if cap(vals) >= n {
		return vals
	}
	return append(make([]units.DBm, 0, n), vals...)
}

// RandomWalkConfig parameterizes a bounded random-walk channel, a common
// alternative mobility model: each slot the signal moves by a Gaussian
// step and reflects off the bounds.
type RandomWalkConfig struct {
	Bounds  Bounds
	Start   units.DBm
	StepStd float64 // dBm per slot
}

type randomWalkTrace struct {
	cfg  RandomWalkConfig
	src  *rng.Source
	vals []units.DBm
}

// NewRandomWalk builds a reflected random-walk trace.
func NewRandomWalk(cfg RandomWalkConfig, src *rng.Source) (Trace, error) {
	if err := cfg.Bounds.validate(); err != nil {
		return nil, err
	}
	if cfg.StepStd < 0 {
		return nil, fmt.Errorf("signal: negative step stddev %v", cfg.StepStd)
	}
	start := cfg.Bounds.clamp(float64(cfg.Start))
	return &randomWalkTrace{cfg: cfg, src: src.Split(), vals: []units.DBm{start}}, nil
}

func (t *randomWalkTrace) At(n int) units.DBm {
	checkSlot(n)
	if n >= len(t.vals) {
		t.extend(n + 1)
	}
	return t.vals[n]
}

// Prewarm implements Prewarmer.
func (t *randomWalkTrace) Prewarm(slots int) {
	if slots > len(t.vals) {
		t.vals = reserve(t.vals, slots)
		t.extend(slots)
	}
}

func (t *randomWalkTrace) extend(n int) {
	lo, hi := float64(t.cfg.Bounds.Min), float64(t.cfg.Bounds.Max)
	for len(t.vals) < n {
		next := float64(t.vals[len(t.vals)-1]) + t.src.Gaussian(0, t.cfg.StepStd)
		// Reflect off the bounds instead of clamping so the walk does not
		// stick to an edge.
		for next < lo || next > hi {
			if next < lo {
				next = 2*lo - next
			}
			if next > hi {
				next = 2*hi - next
			}
		}
		t.vals = append(t.vals, units.DBm(next))
	}
}

// GilbertElliottConfig parameterizes a two-state Markov channel: the user
// is either in a Good state (strong signal) or Bad state (weak signal),
// with per-slot transition probabilities, plus Gaussian jitter.
type GilbertElliottConfig struct {
	Bounds    Bounds
	Good, Bad units.DBm // state center levels
	PGoodToBad,
	PBadToGood float64 // per-slot transition probabilities
	JitterStd float64 // dBm
}

type gilbertElliottTrace struct {
	cfg GilbertElliottConfig
	// chain draws the state transitions and jitter the Gaussian offsets:
	// independent sources, one draw of each per slot.
	chain, jitter *rng.Source
	good          bool // state of slot len(vals)-1
	vals          []units.DBm
}

// NewGilbertElliott builds the two-state Markov trace, starting in Good.
func NewGilbertElliott(cfg GilbertElliottConfig, src *rng.Source) (Trace, error) {
	if err := cfg.Bounds.validate(); err != nil {
		return nil, err
	}
	for _, p := range []float64{cfg.PGoodToBad, cfg.PBadToGood} {
		if p < 0 || p > 1 {
			return nil, fmt.Errorf("signal: transition probability %v outside [0,1]", p)
		}
	}
	if cfg.JitterStd < 0 {
		return nil, fmt.Errorf("signal: negative jitter stddev %v", cfg.JitterStd)
	}
	chain := src.Split()
	return &gilbertElliottTrace{cfg: cfg, chain: chain, jitter: chain.Split()}, nil
}

func (t *gilbertElliottTrace) At(n int) units.DBm {
	checkSlot(n)
	if n >= len(t.vals) {
		t.extend(n + 1)
	}
	return t.vals[n]
}

// Prewarm implements Prewarmer.
func (t *gilbertElliottTrace) Prewarm(slots int) {
	if slots > len(t.vals) {
		t.vals = reserve(t.vals, slots)
		t.extend(slots)
	}
}

func (t *gilbertElliottTrace) extend(n int) {
	for i := len(t.vals); i < n; i++ {
		switch {
		case i == 0:
			t.good = true
		case t.good:
			t.good = !t.chain.Bool(t.cfg.PGoodToBad)
		default:
			t.good = t.chain.Bool(t.cfg.PBadToGood)
		}
		level := t.cfg.Bad
		if t.good {
			level = t.cfg.Good
		}
		t.vals = append(t.vals, t.cfg.Bounds.clamp(float64(level)+t.cfg.JitterStd*t.jitter.Norm()))
	}
}

// Constant returns a trace pinned at the given level (clamped to b).
func Constant(level units.DBm, b Bounds) Trace {
	return constantTrace(b.clamp(float64(level)))
}

type constantTrace units.DBm

func (c constantTrace) At(int) units.DBm { return units.DBm(c) }

// FromSlice replays a recorded trace; slots beyond the end repeat the last
// value (an empty slice is invalid).
func FromSlice(vals []units.DBm) (Trace, error) {
	if len(vals) == 0 {
		return nil, fmt.Errorf("signal: empty trace")
	}
	cp := make([]units.DBm, len(vals))
	copy(cp, vals)
	return sliceTrace(cp), nil
}

type sliceTrace []units.DBm

func (s sliceTrace) At(n int) units.DBm {
	checkSlot(n)
	if n >= len(s) {
		return s[len(s)-1]
	}
	return s[n]
}
