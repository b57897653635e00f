package workload

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"jointstream/internal/rng"
)

// TestNonSignalDrawsGolden pins every draw of a generated workload that is
// not its channel: ID, size, base rate, rate jitter and start slot of
// PaperDefaults(200), and the same with VBR jitter and Poisson arrivals
// (plus the first 64 rate draws). The hashes were recorded while the
// paper's channel was still a memoizing trace that split its own source
// from src; the stateless sine draws one seed word instead, and this holds
// that switch to consuming exactly one src draw a user, as Split did.
func TestNonSignalDrawsGolden(t *testing.T) {
	staggered := PaperDefaults(200)
	staggered.RateJitterFrac, staggered.MeanInterarrival = 0.2, 3
	cases := []struct {
		name string
		cfg  Config
		want map[uint64]uint64
	}{
		{"paper", PaperDefaults(200), map[uint64]uint64{42: 0x41570984acc19831, 7: 0x976433d44e279b59, 43: 0xf3d0c3ebffd6eb25}},
		{"vbr-staggered", staggered, map[uint64]uint64{42: 0x658a728a0b503331, 7: 0xb92b22f3afd5459f, 43: 0x2795d453e48ec5ff}},
	}
	for _, c := range cases {
		for _, seed := range []uint64{42, 7, 43} {
			wl, err := Generate(c.cfg, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			var b [8]byte
			put := func(v float64) {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
			for _, s := range wl {
				put(float64(s.ID))
				put(float64(s.Size))
				put(float64(s.BaseRate))
				put(float64(s.RateJitter))
				put(float64(s.StartSlot))
				for n := 0; n < 64; n++ {
					put(float64(s.RateAt(n)))
				}
			}
			if got := h.Sum64(); got != c.want[seed] {
				t.Errorf("%s, seed %d: non-signal draws hash %#016x, want %#016x", c.name, seed, got, c.want[seed])
			}
		}
	}
}
