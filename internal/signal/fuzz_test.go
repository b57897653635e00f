package signal

import (
	"math"
	"strings"
	"testing"

	"jointstream/internal/units"
)

// FuzzReadTrace checks the trace parser never panics and that accepted
// traces respect the bounds.
func FuzzReadTrace(f *testing.F) {
	seeds := []string{
		"-80\n-85.5\n",
		"0,-60\n1,-70\n",
		"# comment\n\n-90\n",
		"x,-80\n",
		"0,-80\n2,-90\n",
		"1e308\n",
		strings.Repeat("-70\n", 100),
		"-80",
		",,\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := ReadTrace(strings.NewReader(in), DefaultBounds)
		if err != nil {
			return
		}
		for n := 0; n < 16; n++ {
			v := tr.At(n)
			if v < DefaultBounds.Min || v > DefaultBounds.Max {
				t.Fatalf("accepted trace out of bounds at %d: %v", n, v)
			}
		}
	})
}

// FuzzStatelessFillMatchesAt: the stateless sine's Fill over any window is
// At at each of its slots, bit for bit, whatever the period, phase, noise
// and seed; every sample is within the bounds; and without noise it is the
// analytic sine. The period is folded into [1, 4096] so that a long run
// does not publish a table per execution.
func FuzzStatelessFillMatchesAt(f *testing.F) {
	f.Add(600, 0.7, 30.0, uint64(9), 0, 64)
	f.Add(1, 0.0, 30.0, uint64(1), 0, 5)                   // one slot per period: every block is one slot
	f.Add(1, 2.5, 0.0, uint64(1), 7, 3)                    //
	f.Add(600, 0.7, 30.0, uint64(9), 590, 20)              // straddles n mod P = 0
	f.Add(600, 0.7, 30.0, uint64(9), 1199, 2)              //
	f.Add(601, 1.1, 10.0, uint64(3), 575, 700)             // short last block (601 = 24·25 + 1), several periods
	f.Add(24, -3.0, 30.0, uint64(4), 0, 100)               // 5 blocks of 5, the last of 4
	f.Add(600, 0.7, 30.0, uint64(9), math.MaxInt32-10, 10) // far end of an unbounded horizon
	f.Add(7, 0.1, 5.0, uint64(2), math.MaxInt32-300, 300)
	f.Add(600, 0.7, 30.0, uint64(9), 33, 0)
	f.Add(600, 0.7, 30.0, uint64(9), 599, 1)
	f.Add(4096, 6.2, 0.0, uint64(0), 4000, 200)
	f.Fuzz(func(t *testing.T, period int, phase, noise float64, seed uint64, from, n int) {
		if math.IsNaN(phase) || math.IsInf(phase, 0) || math.IsNaN(noise) || math.IsInf(noise, 0) {
			return
		}
		if period < 0 {
			period = -(period + 1)
		}
		period = period%4096 + 1
		if from < 0 {
			from = -(from + 1)
		}
		from %= math.MaxInt32 - 1024
		if n < 0 {
			n = -(n + 1)
		}
		n %= 1024
		cfg := SineConfig{Bounds: DefaultBounds, PeriodSlots: period, Phase: phase, NoiseStdDBm: math.Abs(noise)}
		tr, err := NewStatelessSine(cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]units.DBm, n)
		Fill(tr, dst, from)
		for k, got := range dst {
			if want := tr.At(from + k); math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
				t.Fatalf("%+v seed %d: Fill(from=%d)[%d] = %v, At(%d) = %v", cfg, seed, from, k, got, from+k, want)
			}
			if got < cfg.Bounds.Min || got > cfg.Bounds.Max {
				t.Fatalf("%+v seed %d: slot %d = %v outside the bounds", cfg, seed, from+k, got)
			}
			if cfg.NoiseStdDBm == 0 && math.Abs(phase) < 1e3 {
				angle := 2*math.Pi*float64((from+k)%period)/float64(period) + phase
				want := cfg.Bounds.clamp(float64(cfg.Bounds.mid()) + cfg.Bounds.amplitude()*math.Sin(angle))
				if math.Abs(float64(got-want)) > 1e-9 {
					t.Fatalf("%+v: slot %d = %v, analytic sine %v", cfg, from+k, got, want)
				}
			}
		}
	})
}
