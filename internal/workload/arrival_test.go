package workload

import (
	"math"
	"testing"

	"jointstream/internal/rng"
	"jointstream/internal/units"
)

// Generate staggers MeanInterarrival workloads draw for draw as this test
// does by hand against a twin source — size, rate, signal seed, then
// ceil(Exp(1/mean)) per user after the first — and every start slot,
// size and rate matches.
func TestPoissonDefaultMatchesLegacyStaggering(t *testing.T) {
	c := PaperDefaults(40)
	c.MeanInterarrival = 8
	got, err := Generate(c, rng.New(1234))
	if err != nil {
		t.Fatal(err)
	}

	// Legacy twin: replay the historical draw sequence by hand.
	src := rng.New(1234)
	src.Uniform(0, 2*math.Pi) // phase offset
	start := 0
	for i := 0; i < c.Users; i++ {
		size := units.KB(src.Uniform(float64(c.SizeMin), float64(c.SizeMax)))
		rate := units.KBps(src.Uniform(float64(c.RateMin), float64(c.RateMax)))
		src.Uint64() // the signal trace's seed
		if i > 0 {
			start += int(math.Ceil(src.Exp(1 / float64(c.MeanInterarrival))))
		}
		s := got[i]
		if s.Size != size || s.BaseRate != rate || s.StartSlot != start {
			t.Fatalf("user %d: got (size=%v rate=%v start=%d), legacy (size=%v rate=%v start=%d)",
				i, s.Size, s.BaseRate, s.StartSlot, size, rate, start)
		}
	}
}

func TestChurnGen(t *testing.T) {
	c := PaperDefaults(1)
	g, err := NewChurnGen(c, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[units.KB]bool{}
	for i := 0; i < 50; i++ {
		s, err := g.Next(i, i*3)
		if err != nil {
			t.Fatal(err)
		}
		if s.ID != i || s.StartSlot != i*3 {
			t.Fatalf("session %d: id=%d start=%d", i, s.ID, s.StartSlot)
		}
		if s.Size < c.SizeMin || s.Size > c.SizeMax {
			t.Fatalf("size %v outside [%v, %v]", s.Size, c.SizeMin, c.SizeMax)
		}
		if s.BaseRate < c.RateMin || s.BaseRate > c.RateMax {
			t.Fatalf("rate %v outside [%v, %v]", s.BaseRate, c.RateMin, c.RateMax)
		}
		seen[s.Size] = true
		if s.Signal == nil {
			t.Fatal("nil signal trace")
		}
	}
	if len(seen) < 40 {
		t.Fatalf("sizes look degenerate: %d distinct of 50", len(seen))
	}
	// Determinism: same seed, same sequence.
	g2, _ := NewChurnGen(c, rng.New(9))
	s2, _ := g2.Next(0, 0)
	g3, _ := NewChurnGen(c, rng.New(9))
	s3, _ := g3.Next(0, 0)
	if s2.Size != s3.Size || s2.BaseRate != s3.BaseRate {
		t.Fatal("churn generation not deterministic per seed")
	}
}
