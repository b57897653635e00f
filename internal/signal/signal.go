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
// order either way.
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

// Mid returns the center of the range.
func (b Bounds) Mid() units.DBm { return (b.Min + b.Max) / 2 }

// Amplitude returns half the width of the range.
func (b Bounds) Amplitude() float64 { return float64(b.Max-b.Min) / 2 }

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

// Sine is the paper's channel model: a clamped sine sweep across the dBm
// range with additive white Gaussian noise. The noise sequence is generated
// once (lazily, in slot order) so that At is a pure function of the slot.
type sineTrace struct {
	cfg   SineConfig
	noise *noiseSeq
	// vals memoizes the fully computed per-slot values for the prewarmed
	// prefix, so At on a prewarmed trace is an array read instead of a
	// math.Sin per call. Prewarm fills it with compute, the same
	// expression At's fallback evaluates, so the memo never changes the
	// values a trace returns.
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
	return &sineTrace{cfg: cfg, noise: newNoiseSeq(src.Split())}, nil
}

func (t *sineTrace) At(n int) units.DBm {
	if n < 0 {
		panic(fmt.Sprintf("signal: negative slot %d", n))
	}
	if n < len(t.vals) {
		return t.vals[n]
	}
	return t.compute(n)
}

// Fill implements Filler: a copy out of the prewarmed memo, and compute —
// At's own fallback — for any slots past it.
func (t *sineTrace) Fill(dst []units.DBm, from int) {
	if from < 0 {
		panic(fmt.Sprintf("signal: negative slot %d", from))
	}
	k := 0
	if from < len(t.vals) {
		k = copy(dst, t.vals[from:])
	}
	for ; k < len(dst); k++ {
		dst[k] = t.compute(from + k)
	}
}

// compute is the analytic evaluation shared by At's fallback and the
// Prewarm memo fill; a single code path keeps the two bitwise-identical.
func (t *sineTrace) compute(n int) units.DBm {
	b := t.cfg.Bounds
	base := float64(b.Mid()) + b.Amplitude()*math.Sin(2*math.Pi*float64(n)/float64(t.cfg.PeriodSlots)+t.cfg.Phase)
	return b.clamp(base + t.cfg.NoiseStdDBm*t.noise.at(n))
}

// noiseSeq memoizes a stream of standard normal deviates so that At(n) is
// repeatable regardless of call order.
type noiseSeq struct {
	src  *rng.Source
	vals []float64
}

func newNoiseSeq(src *rng.Source) *noiseSeq { return &noiseSeq{src: src} }

func (s *noiseSeq) at(n int) float64 {
	for len(s.vals) <= n {
		s.vals = append(s.vals, s.src.Norm())
	}
	return s.vals[n]
}

// grow extends the memo to n values with one exactly-sized allocation.
func (s *noiseSeq) grow(n int) {
	if n <= len(s.vals) {
		return
	}
	if cap(s.vals) < n {
		vals := make([]float64, len(s.vals), n)
		copy(vals, s.vals)
		s.vals = vals
	}
	s.at(n - 1)
}

// Prewarm implements Prewarmer. Beyond growing the noise memo it also
// memoizes the fully computed signal values, so every later At over the
// prewarmed prefix — simulator ticks, link-table compilation — is a pure
// array read with no trigonometry.
func (t *sineTrace) Prewarm(slots int) {
	t.noise.grow(slots)
	if slots <= len(t.vals) {
		return
	}
	vals := make([]units.DBm, slots)
	copy(vals, t.vals)
	for n := len(t.vals); n < slots; n++ {
		vals[n] = t.compute(n)
	}
	t.vals = vals
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
	vals []float64
}

// NewRandomWalk builds a reflected random-walk trace.
func NewRandomWalk(cfg RandomWalkConfig, src *rng.Source) (Trace, error) {
	if err := cfg.Bounds.validate(); err != nil {
		return nil, err
	}
	if cfg.StepStd < 0 {
		return nil, fmt.Errorf("signal: negative step stddev %v", cfg.StepStd)
	}
	start := float64(cfg.Bounds.clamp(float64(cfg.Start)))
	return &randomWalkTrace{cfg: cfg, src: src.Split(), vals: []float64{start}}, nil
}

func (t *randomWalkTrace) At(n int) units.DBm {
	if n < 0 {
		panic(fmt.Sprintf("signal: negative slot %d", n))
	}
	for len(t.vals) <= n {
		next := t.vals[len(t.vals)-1] + t.src.Gaussian(0, t.cfg.StepStd)
		// Reflect off the bounds instead of clamping so the walk does not
		// stick to an edge.
		lo, hi := float64(t.cfg.Bounds.Min), float64(t.cfg.Bounds.Max)
		for next < lo || next > hi {
			if next < lo {
				next = 2*lo - next
			}
			if next > hi {
				next = 2*hi - next
			}
		}
		t.vals = append(t.vals, next)
	}
	return units.DBm(t.vals[n])
}

// Prewarm implements Prewarmer.
func (t *randomWalkTrace) Prewarm(slots int) {
	if slots <= len(t.vals) {
		return
	}
	if cap(t.vals) < slots {
		vals := make([]float64, len(t.vals), slots)
		copy(vals, t.vals)
		t.vals = vals
	}
	t.At(slots - 1)
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
	cfg    GilbertElliottConfig
	src    *rng.Source
	states []bool // true = good
	jitter *noiseSeq
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
	child := src.Split()
	return &gilbertElliottTrace{
		cfg:    cfg,
		src:    child,
		states: []bool{true},
		jitter: newNoiseSeq(child.Split()),
	}, nil
}

func (t *gilbertElliottTrace) At(n int) units.DBm {
	if n < 0 {
		panic(fmt.Sprintf("signal: negative slot %d", n))
	}
	for len(t.states) <= n {
		cur := t.states[len(t.states)-1]
		if cur {
			cur = !t.src.Bool(t.cfg.PGoodToBad)
		} else {
			cur = t.src.Bool(t.cfg.PBadToGood)
		}
		t.states = append(t.states, cur)
	}
	level := t.cfg.Bad
	if t.states[n] {
		level = t.cfg.Good
	}
	return t.cfg.Bounds.clamp(float64(level) + t.cfg.JitterStd*t.jitter.at(n))
}

// Prewarm implements Prewarmer.
func (t *gilbertElliottTrace) Prewarm(slots int) {
	if slots > len(t.states) && cap(t.states) < slots {
		states := make([]bool, len(t.states), slots)
		copy(states, t.states)
		t.states = states
	}
	t.jitter.grow(slots)
	if slots > 0 {
		t.At(slots - 1)
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
	if n < 0 {
		panic(fmt.Sprintf("signal: negative slot %d", n))
	}
	if n >= len(s) {
		return s[len(s)-1]
	}
	return s[n]
}
