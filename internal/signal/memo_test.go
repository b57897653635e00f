package signal

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"jointstream/internal/rng"
	"jointstream/internal/units"
)

// goldenSlots is how much of each noise stream the golden hashes cover.
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

// TestMemoizedStreamsGolden pins the realisation of every trace that
// draws noise where it lives: the 13 figures, simtest's golden trace and
// every benchmark workload's energy rest on the sine's exact bits, the
// -spec and jstream-trace channels on the Markov chains', and a change to
// the sine kernel, to how a memo is grown (or to rng.Norm) must leave
// them alone. Each stream is reached four ways — lazily in slot order,
// prewarmed where the trace has a memo, filled in ragged chunks, and out
// of order with the highest slot first — from a fresh trace each time,
// and all four must hash to the checked-in value.
func TestMemoizedStreamsGolden(t *testing.T) {
	paper := SineConfig{Bounds: DefaultBounds, PeriodSlots: 600, Phase: 0.7, NoiseStdDBm: 30}
	quiet, short := paper, paper
	quiet.NoiseStdDBm = 0
	short.PeriodSlots, short.Phase = 24, 2.1
	sine := func(cfg SineConfig, seed uint64) func() (Trace, error) {
		return func() (Trace, error) { return NewStatelessSine(cfg, seed) }
	}
	cases := []struct {
		name  string
		build func() (Trace, error)
		want  uint64
	}{
		{"sine-paper", sine(paper, 42), 0xfee9163129597d11},
		{"sine-quiet", sine(quiet, 42), 0xba4fa8879bd032b0},
		{"sine-short", sine(short, 7), 0x1dc0896e78b1010a},
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
			if p, ok := tr.(Prewarmer); ok {
				p.Prewarm(len(vals))
			}
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
