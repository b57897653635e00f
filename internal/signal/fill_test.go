package signal

import (
	"math"
	"runtime"
	"sync"
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
// race; that argument needs Fill to touch exactly the state At touches —
// the same memo growth as the At calls it stands for, none at all inside
// the prewarmed prefix, and to exactly from+len past it.
func TestSineFillGrowsNoMemoAtWouldNot(t *testing.T) {
	cfg := SineConfig{Bounds: DefaultBounds, PeriodSlots: 600, NoiseStdDBm: 30}
	for _, w := range []struct{ prewarm, from, n int }{
		{100, 0, 64}, {100, 36, 64}, {100, 90, 30}, {100, 100, 5}, {0, 10, 7}, {100, 40, 0}, {100, 140, 0},
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
		if len(fill.vals) != len(at.vals) || *fill.src != *at.src {
			t.Errorf("%+v: Fill left the memo at %d and the source at %+v, At at %d and %+v", w,
				len(fill.vals), *fill.src, len(at.vals), *at.src)
		}
		want := w.prewarm
		if w.n > 0 && w.from+w.n > w.prewarm {
			want = w.from + w.n
		}
		if len(fill.vals) != want {
			t.Errorf("%+v: Fill left the memo at %d slots, want %d", w, len(fill.vals), want)
		}
	}
}

// TestPrewarmedTracesShareReadOnly: simulators built over shared, prewarmed
// sessions prewarm them again and read them from several goroutines; under
// -race this holds every memoizing trace to writing nothing inside its
// prefix.
func TestPrewarmedTracesShareReadOnly(t *testing.T) {
	const slots = 128
	for name, tr := range fillTraces(t, 3) {
		p, ok := tr.(Prewarmer)
		if !ok {
			continue
		}
		p.Prewarm(slots)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.Prewarm(slots)
				p.Prewarm(slots / 2)
				var win [32]units.DBm
				Fill(tr, win[:], slots-len(win))
				if win[0] != tr.At(slots-len(win)) {
					t.Errorf("%s: Fill and At disagree inside the prewarmed prefix", name)
				}
			}()
		}
		wg.Wait()
	}
}

// TestSinePrewarmOneAllocation: prewarming a fresh trace is one allocation
// of one 8-byte value per slot — there is no second memo beside it — and
// prewarming again is free.
func TestSinePrewarmOneAllocation(t *testing.T) {
	const slots = 256
	cfg := SineConfig{Bounds: DefaultBounds, PeriodSlots: 600, NoiseStdDBm: 30}
	src := rng.New(4)
	var tr *sineTrace
	fresh := func() {
		made, err := NewSine(cfg, src)
		if err != nil {
			t.Fatal(err)
		}
		tr = made.(*sineTrace)
	}
	const runs = 50
	build := testing.AllocsPerRun(runs, fresh)
	if both := testing.AllocsPerRun(runs, func() { fresh(); tr.Prewarm(slots) }); both-build != 1 {
		t.Errorf("Prewarm(%d) on a fresh trace allocated %v times, want 1", slots, both-build)
	}
	if len(tr.vals) != slots || cap(tr.vals) != slots {
		t.Errorf("memo holds %d of %d values after Prewarm(%d)", len(tr.vals), cap(tr.vals), slots)
	}
	if again := testing.AllocsPerRun(runs, func() { tr.Prewarm(slots) }); again != 0 {
		t.Errorf("a second Prewarm(%d) allocated %v times", slots, again)
	}
	// What the prewarmed traces keep alive is that memo: 8 bytes a slot.
	const traces, horizon = 64, 4096
	kept := make([]Trace, traces)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range kept {
		fresh()
		tr.Prewarm(horizon)
		kept[i] = tr
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perSlot := float64(after.HeapAlloc-before.HeapAlloc) / (traces * horizon)
	if perSlot < 7 || perSlot > 10 {
		t.Errorf("prewarmed traces retain %.2f bytes per slot, want about 8 (two memos would be 16)", perSlot)
	}
	runtime.KeepAlive(kept)
}
