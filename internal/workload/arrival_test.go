package workload

import (
	"math"
	"testing"

	"jointstream/internal/rng"
	"jointstream/internal/units"
)

// The ArrivalProcess refactor must keep MeanInterarrival workloads
// byte-identical: same draws, same order, same start slots. This test
// re-implements the pre-refactor inline staggering (size, rate, signal,
// then ceil(Exp(1/mean)) per user after the first) against a twin source
// and compares every field Generate produces.
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

// Explicit PoissonArrivals must equal the MeanInterarrival shorthand.
func TestPoissonArrivalsEqualsShorthand(t *testing.T) {
	a := PaperDefaults(25)
	a.MeanInterarrival = 5
	b := PaperDefaults(25)
	b.Arrivals = PoissonArrivals{MeanInterarrival: 5}
	sa, err := Generate(a, rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	sb, err := Generate(b, rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	for i := range sa {
		if sa[i].StartSlot != sb[i].StartSlot || sa[i].Size != sb[i].Size || sa[i].BaseRate != sb[i].BaseRate {
			t.Fatalf("user %d: shorthand %+v != explicit %+v", i, sa[i], sb[i])
		}
	}
}

func TestTraceArrivals(t *testing.T) {
	tr := TraceArrivals{StartSlots: []int{0, 3, 3, 10}}
	c := PaperDefaults(6)
	c.Arrivals = tr
	ss, err := Generate(c, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	// Users 0-3 follow the trace; 4,5 repeat the final gap (7).
	want := []int{0, 3, 3, 10, 17, 24}
	for i, s := range ss {
		if s.StartSlot != want[i] {
			t.Fatalf("user %d start = %d, want %d", i, s.StartSlot, want[i])
		}
	}
	// Deterministic: consumes no randomness, so sizes match a no-arrival
	// generation with the same seed.
	c2 := PaperDefaults(6)
	ss2, err := Generate(c2, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ss {
		if ss[i].Size != ss2[i].Size {
			t.Fatalf("trace arrivals consumed randomness: user %d size %v != %v", i, ss[i].Size, ss2[i].Size)
		}
	}
}

func TestBurstArrivals(t *testing.T) {
	c := PaperDefaults(7)
	c.Arrivals = BurstArrivals{Size: 3, GapSlots: 20}
	ss, err := Generate(c, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 0, 20, 20, 20, 40}
	for i, s := range ss {
		if s.StartSlot != want[i] {
			t.Fatalf("user %d start = %d, want %d", i, s.StartSlot, want[i])
		}
	}
}

func TestArrivalsMutuallyExclusive(t *testing.T) {
	c := PaperDefaults(3)
	c.MeanInterarrival = 4
	c.Arrivals = BurstArrivals{Size: 2, GapSlots: 1}
	if _, err := Generate(c, rng.New(1)); err == nil {
		t.Fatal("want validation error when both Arrivals and MeanInterarrival are set")
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
