package signal

import (
	"math"
	"testing"
	"testing/quick"

	"jointstream/internal/rng"
	"jointstream/internal/units"
)

func mustSine(t *testing.T, cfg SineConfig, seed uint64) Trace {
	t.Helper()
	tr, err := NewStatelessSine(cfg, seed)
	if err != nil {
		t.Fatalf("NewStatelessSine: %v", err)
	}
	return tr
}

func TestSineWithinBounds(t *testing.T) {
	tr := mustSine(t, SineConfig{Bounds: DefaultBounds, PeriodSlots: 600, NoiseStdDBm: 10}, 1)
	for n := 0; n < 5000; n++ {
		v := tr.At(n)
		if v < -110 || v > -50 {
			t.Fatalf("At(%d) = %v outside [-110,-50]", n, v)
		}
	}
}

func TestSineNoNoiseIsPureSine(t *testing.T) {
	tr := mustSine(t, SineConfig{Bounds: DefaultBounds, PeriodSlots: 360}, 1)
	// At phase 0, slot 0 should be the midpoint.
	if got := tr.At(0); math.Abs(float64(got)-(-80)) > 1e-9 {
		t.Errorf("At(0) = %v, want -80", got)
	}
	// Quarter period: peak.
	if got := tr.At(90); math.Abs(float64(got)-(-50)) > 1e-9 {
		t.Errorf("At(90) = %v, want -50", got)
	}
	// Three-quarter period: trough.
	if got := tr.At(270); math.Abs(float64(got)-(-110)) > 1e-9 {
		t.Errorf("At(270) = %v, want -110", got)
	}
}

func TestSinePhaseShiftsDiffer(t *testing.T) {
	a := mustSine(t, SineConfig{Bounds: DefaultBounds, PeriodSlots: 600, Phase: 0}, 1)
	b := mustSine(t, SineConfig{Bounds: DefaultBounds, PeriodSlots: 600, Phase: math.Pi}, 1)
	if a.At(150) == b.At(150) {
		t.Error("phase-shifted traces should differ at quarter period")
	}
	// Opposite phases are mirror images around the midpoint.
	sum := float64(a.At(150)) + float64(b.At(150))
	if math.Abs(sum-(-160)) > 1e-9 {
		t.Errorf("antiphase traces should sum to 2*mid: got %v", sum)
	}
}

func TestSineRepeatable(t *testing.T) {
	tr := mustSine(t, SineConfig{Bounds: DefaultBounds, PeriodSlots: 600, NoiseStdDBm: 10}, 42)
	// Query out of order and repeat: must be a pure function of n.
	v100 := tr.At(100)
	v5 := tr.At(5)
	if tr.At(100) != v100 || tr.At(5) != v5 {
		t.Error("At is not repeatable across call orders")
	}
	tr2 := mustSine(t, SineConfig{Bounds: DefaultBounds, PeriodSlots: 600, NoiseStdDBm: 10}, 42)
	for n := 0; n < 200; n++ {
		if tr.At(n) != tr2.At(n) {
			t.Fatalf("same-seed traces diverge at slot %d", n)
		}
	}
}

// TestSineSeedsDecorrelated: two seeds' samples match only where both are
// clamped to the same bound, which makes them equal whatever their noise,
// and that happens about as often as the model clamps both: at slot n,
// P(lower)² + P(upper)² with P the normal tail beyond the bound from the
// sine's value. Every slot is checked.
func TestSineSeedsDecorrelated(t *testing.T) {
	cfg := SineConfig{Bounds: DefaultBounds, PeriodSlots: 600, NoiseStdDBm: 10}
	a := mustSine(t, cfg, 1)
	b := mustSine(t, cfg, 2)
	b0 := cfg.Bounds
	same, clamped, want := 0, 0, 0.0
	for n := 0; n < 100; n++ {
		s := float64(b0.mid()) + b0.amplitude()*math.Sin(2*math.Pi*float64(n)/float64(cfg.PeriodSlots))
		lo := 0.5 * math.Erfc((s-float64(b0.Min))/(cfg.NoiseStdDBm*math.Sqrt2))
		hi := 0.5 * math.Erfc((float64(b0.Max)-s)/(cfg.NoiseStdDBm*math.Sqrt2))
		want += lo*lo + hi*hi
		if va, vb := a.At(n), b.At(n); va == vb {
			same++
			if va == b0.Min || va == b0.Max {
				clamped++
			}
		}
	}
	if same != clamped {
		t.Errorf("differently seeded noisy traces matched on %d/100 slots, %d of them inside the bounds", same, same-clamped)
	}
	// A sum of independent Bernoulli draws: mean want, variance under it.
	if limit := want + 3*math.Sqrt(want) + 1; float64(clamped) > limit {
		t.Errorf("both traces clamped to one bound on %d/100 slots, the model expects %.2f (at most %.1f)", clamped, want, limit)
	}
}

func TestSineValidation(t *testing.T) {
	if _, err := NewStatelessSine(SineConfig{Bounds: Bounds{Min: -50, Max: -110}, PeriodSlots: 10}, 1); err == nil {
		t.Error("inverted bounds accepted")
	}
	if _, err := NewStatelessSine(SineConfig{Bounds: DefaultBounds, PeriodSlots: 0}, 1); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := NewStatelessSine(SineConfig{Bounds: DefaultBounds, PeriodSlots: 10, NoiseStdDBm: -1}, 1); err == nil {
		t.Error("negative noise accepted")
	}
}

func TestSineNegativeSlotPanics(t *testing.T) {
	tr := mustSine(t, SineConfig{Bounds: DefaultBounds, PeriodSlots: 600}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative slot")
		}
	}()
	tr.At(-1)
}

func TestRandomWalkWithinBounds(t *testing.T) {
	tr, err := NewRandomWalk(RandomWalkConfig{Bounds: DefaultBounds, Start: -80, StepStd: 5}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 5000; n++ {
		v := tr.At(n)
		if v < -110 || v > -50 {
			t.Fatalf("At(%d) = %v outside bounds", n, v)
		}
	}
}

func TestRandomWalkStartClamped(t *testing.T) {
	tr, err := NewRandomWalk(RandomWalkConfig{Bounds: DefaultBounds, Start: -30, StepStd: 1}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.At(0); got != -50 {
		t.Errorf("At(0) = %v, want clamped start -50", got)
	}
}

func TestRandomWalkMoves(t *testing.T) {
	tr, err := NewRandomWalk(RandomWalkConfig{Bounds: DefaultBounds, Start: -80, StepStd: 5}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	moved := false
	prev := tr.At(0)
	for n := 1; n < 50; n++ {
		if tr.At(n) != prev {
			moved = true
			break
		}
	}
	if !moved {
		t.Error("random walk never moved in 50 slots")
	}
}

func TestGilbertElliottLevels(t *testing.T) {
	cfg := GilbertElliottConfig{
		Bounds: DefaultBounds, Good: -60, Bad: -100,
		PGoodToBad: 0.05, PBadToGood: 0.1,
	}
	tr, err := NewGilbertElliott(cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	sawGood, sawBad := false, false
	for n := 0; n < 2000; n++ {
		v := tr.At(n)
		switch v {
		case -60:
			sawGood = true
		case -100:
			sawBad = true
		default:
			t.Fatalf("At(%d) = %v, want -60 or -100 (no jitter)", n, v)
		}
	}
	if !sawGood || !sawBad {
		t.Errorf("expected both states visited: good=%v bad=%v", sawGood, sawBad)
	}
}

func TestGilbertElliottStationaryFraction(t *testing.T) {
	cfg := GilbertElliottConfig{
		Bounds: DefaultBounds, Good: -60, Bad: -100,
		PGoodToBad: 0.1, PBadToGood: 0.1,
	}
	tr, err := NewGilbertElliott(cfg, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	good := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if tr.At(i) == -60 {
			good++
		}
	}
	frac := float64(good) / n
	// Symmetric transition probabilities give 50% stationary occupancy.
	if math.Abs(frac-0.5) > 0.03 {
		t.Errorf("good-state fraction = %v, want ~0.5", frac)
	}
}

func TestGilbertElliottValidation(t *testing.T) {
	src := rng.New(1)
	bad := GilbertElliottConfig{Bounds: DefaultBounds, Good: -60, Bad: -100, PGoodToBad: 1.5}
	if _, err := NewGilbertElliott(bad, src); err == nil {
		t.Error("probability > 1 accepted")
	}
	bad2 := GilbertElliottConfig{Bounds: DefaultBounds, Good: -60, Bad: -100, JitterStd: -2}
	if _, err := NewGilbertElliott(bad2, src); err == nil {
		t.Error("negative jitter accepted")
	}
}

func TestConstant(t *testing.T) {
	tr := Constant(-75, DefaultBounds)
	for _, n := range []int{0, 1, 99999} {
		if got := tr.At(n); got != -75 {
			t.Errorf("At(%d) = %v, want -75", n, got)
		}
	}
	clamped := Constant(-300, DefaultBounds)
	if got := clamped.At(0); got != -110 {
		t.Errorf("clamped constant = %v, want -110", got)
	}
}

func TestFromSlice(t *testing.T) {
	tr, err := FromSlice([]units.DBm{-60, -70, -80})
	if err != nil {
		t.Fatal(err)
	}
	wants := map[int]units.DBm{0: -60, 1: -70, 2: -80, 3: -80, 100: -80}
	for n, want := range wants {
		if got := tr.At(n); got != want {
			t.Errorf("At(%d) = %v, want %v", n, got, want)
		}
	}
	if _, err := FromSlice(nil); err == nil {
		t.Error("empty slice accepted")
	}
}

func TestFromSliceCopies(t *testing.T) {
	src := []units.DBm{-60, -70}
	tr, err := FromSlice(src)
	if err != nil {
		t.Fatal(err)
	}
	src[0] = -110
	if got := tr.At(0); got != -60 {
		t.Errorf("trace aliased caller slice: At(0) = %v", got)
	}
}

func TestBoundsHelpers(t *testing.T) {
	b := DefaultBounds
	if b.mid() != -80 {
		t.Errorf("mid = %v, want -80", b.mid())
	}
	if b.amplitude() != 30 {
		t.Errorf("amplitude = %v, want 30", b.amplitude())
	}
}

// Property: every generator stays in bounds for arbitrary seeds.
func TestAllTracesBoundedProperty(t *testing.T) {
	f := func(seed uint64, phase uint8) bool {
		src := rng.New(seed)
		sine, err := NewStatelessSine(SineConfig{
			Bounds: DefaultBounds, PeriodSlots: 300,
			Phase: float64(phase), NoiseStdDBm: 30,
		}, src.Uint64())
		if err != nil {
			return false
		}
		walk, err := NewRandomWalk(RandomWalkConfig{Bounds: DefaultBounds, Start: -80, StepStd: 10}, src)
		if err != nil {
			return false
		}
		ge, err := NewGilbertElliott(GilbertElliottConfig{
			Bounds: DefaultBounds, Good: -60, Bad: -100,
			PGoodToBad: 0.2, PBadToGood: 0.2, JitterStd: 15,
		}, src)
		if err != nil {
			return false
		}
		for n := 0; n < 300; n++ {
			for _, tr := range []Trace{sine, walk, ge} {
				v := tr.At(n)
				if v < -110 || v > -50 {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
