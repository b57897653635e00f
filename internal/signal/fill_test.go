package signal

import (
	"math"
	"testing"

	"jointstream/internal/rng"
	"jointstream/internal/units"
)

// fillTraces builds one trace of every kind from seed. Called twice with
// the same seed it returns twins: Fill runs on one, At on the other, so a
// memo one call grew cannot hide a difference from the other.
func fillTraces(t *testing.T, seed uint64) map[string]Trace {
	t.Helper()
	must := func(tr Trace, err error) Trace {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	cfg := SineConfig{Bounds: DefaultBounds, PeriodSlots: 600, Phase: 0.7, NoiseStdDBm: 30}
	quiet := cfg
	quiet.NoiseStdDBm = 0
	short := cfg
	short.PeriodSlots = 24 // the windows below wrap it a dozen times over
	warm := must(NewSine(cfg, rng.New(seed)))
	warm.(Prewarmer).Prewarm(100) // windows below straddle the memo's end
	replay := make([]units.DBm, 50)
	for i := range replay {
		replay[i] = units.DBm(-110 + i)
	}
	return map[string]Trace{
		"sine":            must(NewSine(cfg, rng.New(seed))),
		"sine-prewarmed":  warm,
		"stateless":       must(NewStatelessSine(cfg, seed)),
		"stateless-quiet": must(NewStatelessSine(quiet, seed)),
		"stateless-short": must(NewStatelessSine(short, seed)),
		"randomwalk":      must(NewRandomWalk(RandomWalkConfig{Bounds: DefaultBounds, Start: -80, StepStd: 10}, rng.New(seed))),
		"gilbert-elliott": must(NewGilbertElliott(GilbertElliottConfig{Bounds: DefaultBounds, Good: -60, Bad: -100, PGoodToBad: 0.2, PBadToGood: 0.2, JitterStd: 15}, rng.New(seed))),
		"constant":        Constant(-72, DefaultBounds),
		"slice":           must(FromSlice(replay)),
	}
}

// TestFillMatchesAt: Fill(dst, from) ≡ At(from+k), bit for bit, for every
// trace kind — through the Filler where there is one, through the At
// fallback otherwise — at random windows, revisited and out of order.
func TestFillMatchesAt(t *testing.T) {
	filled, read := fillTraces(t, 9), fillTraces(t, 9)
	src := rng.New(1)
	for name, tr := range filled {
		twin := read[name]
		for trial := 0; trial < 200; trial++ {
			from, n := src.Intn(260), src.Intn(70)
			dst := make([]units.DBm, n)
			Fill(tr, dst, from)
			for k, got := range dst {
				if want := twin.At(from + k); math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
					t.Fatalf("%s: Fill(from=%d)[%d] = %v, At(%d) = %v", name, from, k, got, from+k, want)
				}
			}
		}
	}
	for _, name := range []string{"sine", "sine-prewarmed", "stateless", "stateless-quiet", "stateless-short"} {
		if _, ok := filled[name].(Filler); !ok {
			t.Errorf("%s does not implement Filler", name)
		}
	}
}

// TestSineFillGrowsNoMemoAtWouldNot: the open tile's bounded mode never
// fills past the horizon because growing a memo from two goroutines would
// race; that argument needs Fill to touch exactly the state At touches.
func TestSineFillGrowsNoMemoAtWouldNot(t *testing.T) {
	cfg := SineConfig{Bounds: DefaultBounds, PeriodSlots: 600, NoiseStdDBm: 30}
	for _, w := range []struct{ prewarm, from, n int }{
		{100, 0, 64}, {100, 36, 64}, {100, 90, 30}, {100, 100, 5}, {0, 10, 7}, {100, 40, 0},
	} {
		a, _ := NewSine(cfg, rng.New(4))
		b, _ := NewSine(cfg, rng.New(4))
		fill, at := a.(*sineTrace), b.(*sineTrace)
		fill.Prewarm(w.prewarm)
		at.Prewarm(w.prewarm)
		fill.Fill(make([]units.DBm, w.n), w.from)
		for k := 0; k < w.n; k++ {
			at.At(w.from + k)
		}
		if len(fill.vals) != len(at.vals) || len(fill.noise.vals) != len(at.noise.vals) {
			t.Errorf("%+v: Fill left memos at (%d, %d), At at (%d, %d)", w,
				len(fill.vals), len(fill.noise.vals), len(at.vals), len(at.noise.vals))
		}
		if w.from+w.n <= w.prewarm && len(fill.noise.vals) != w.prewarm {
			t.Errorf("%+v: Fill inside the prewarmed prefix grew the noise memo to %d", w, len(fill.noise.vals))
		}
	}
}
