package signal

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"jointstream/internal/rng"
	"jointstream/internal/units"
)

// goldenSlots is how much of each memoized stream the golden hashes cover.
const goldenSlots = 4096

// hashStream is FNV-1a over the samples' IEEE-754 bits in slot order.
func hashStream(vals []units.DBm) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(float64(v)))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestMemoizedStreamsGolden pins the sequential realisation of every
// memoizing trace where it lives: the 13 figures, simtest's golden trace
// and cell_dense's energy all rest on these exact bits, and a change to how
// a memo is grown (or to rng.Norm) must leave them alone. Each stream is
// reached four ways — lazily in slot order, prewarmed, filled in ragged
// chunks, and out of order with the highest slot first — from a fresh
// trace each time, and all four must hash to the checked-in value.
func TestMemoizedStreamsGolden(t *testing.T) {
	paper := SineConfig{Bounds: DefaultBounds, PeriodSlots: 600, Phase: 0.7, NoiseStdDBm: 30}
	quiet, short := paper, paper
	quiet.NoiseStdDBm = 0
	short.PeriodSlots, short.Phase = 24, 2.1
	sine := func(cfg SineConfig, seed uint64) func() (Trace, error) {
		return func() (Trace, error) { return NewSine(cfg, rng.New(seed)) }
	}
	cases := []struct {
		name  string
		build func() (Trace, error)
		want  uint64
	}{
		{"sine-paper", sine(paper, 42), 0xc4b897121483baf1},
		{"sine-quiet", sine(quiet, 42), 0xfd1f31d41118464f},
		{"sine-short", sine(short, 7), 0x8b1f3beb7b0b5924},
		{"gilbert-elliott", func() (Trace, error) {
			return NewGilbertElliott(GilbertElliottConfig{Bounds: DefaultBounds, Good: -60, Bad: -100,
				PGoodToBad: 0.2, PBadToGood: 0.2, JitterStd: 15}, rng.New(9))
		}, 0xac27f4adebf7ca51},
		{"randomwalk", func() (Trace, error) {
			return NewRandomWalk(RandomWalkConfig{Bounds: DefaultBounds, Start: -80, StepStd: 10}, rng.New(9))
		}, 0x2475f7526b5df834},
	}
	ways := []struct {
		name string
		read func(tr Trace, vals []units.DBm)
	}{
		{"lazy", func(tr Trace, vals []units.DBm) {
			for n := range vals {
				vals[n] = tr.At(n)
			}
		}},
		{"prewarmed", func(tr Trace, vals []units.DBm) {
			tr.(Prewarmer).Prewarm(len(vals))
			for n := range vals {
				vals[n] = tr.At(n)
			}
		}},
		{"ragged-fill", func(tr Trace, vals []units.DBm) {
			chunks := []int{1, 7, 0, 64, 333, 2, 1000}
			for from, i := 0, 0; from < len(vals); i++ {
				n := min(chunks[i%len(chunks)], len(vals)-from)
				Fill(tr, vals[from:from+n], from)
				from += n
			}
		}},
		{"out-of-order", func(tr Trace, vals []units.DBm) {
			last := len(vals) - 1
			vals[last] = tr.At(last)
			for i := range vals {
				n := i * 2731 % len(vals) // an odd stride visits every slot of the 4 096 once
				vals[n] = tr.At(n)
			}
		}},
	}
	for _, c := range cases {
		for _, w := range ways {
			tr, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			vals := make([]units.DBm, goldenSlots)
			w.read(tr, vals)
			if got := hashStream(vals); got != c.want {
				t.Errorf("%s, %s: stream hash %#016x, want %#016x", c.name, w.name, got, c.want)
			}
		}
	}
}

// BenchmarkSinePrewarm times what cell_dense's set-up is made of: fresh
// paper-default traces prewarmed to a 256-slot horizon, one after another
// on one goroutine. ns/sample is the whole cost of a memoized sample
// (sine, Box–Muller draw, clamp, store); B/sample is what Prewarm allocates
// for it — 8 for a single memo.
func BenchmarkSinePrewarm(b *testing.B) {
	const users, slots = 4096, 256
	cfg := SineConfig{Bounds: DefaultBounds, PeriodSlots: 600, NoiseStdDBm: 30}
	traces := make([]Trace, users)
	var before, after runtime.MemStats
	var bytes uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		src := rng.New(uint64(i))
		for u := range traces {
			cfg.Phase = 2 * math.Pi * float64(u) / users
			tr, err := NewSine(cfg, src)
			if err != nil {
				b.Fatal(err)
			}
			traces[u] = tr
		}
		runtime.ReadMemStats(&before)
		b.StartTimer()
		for _, tr := range traces {
			tr.(Prewarmer).Prewarm(slots)
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		bytes += after.TotalAlloc - before.TotalAlloc
	}
	samples := float64(b.N * users * slots)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/samples, "ns/sample")
	b.ReportMetric(float64(bytes)/samples, "B/sample")
	sinkDBm = traces[0].At(slots - 1)
}
