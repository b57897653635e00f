package rrc

import (
	"math"
	"testing"
	"testing/quick"

	"jointstream/internal/units"
)

func TestFastDormancyTruncatesTail(t *testing.T) {
	base := Paper3G()
	fd := base.WithFastDormancy(1.5)
	if fd.Name != "3G+FD" {
		t.Errorf("name = %q", fd.Name)
	}
	// Within the dormancy window the tail matches the base profile.
	if got, want := fd.TailEnergy(1.0), base.TailEnergy(1.0); got != want {
		t.Errorf("pre-release tail %v != base %v", got, want)
	}
	// Beyond it, the tail saturates at the release point.
	want := base.TailEnergy(1.5)
	for _, gap := range []units.Seconds{1.5, 2, 5, 100} {
		if got := fd.TailEnergy(gap); math.Abs(float64(got-want)) > 1e-9 {
			t.Errorf("TailEnergy(%v) = %v, want truncated %v", gap, got, want)
		}
	}
}

func TestFastDormancyMaxTail(t *testing.T) {
	base := Paper3G()
	fd := base.WithFastDormancy(1.5)
	want := base.TailEnergy(1.5) // 1.5s of DCH
	if got := fd.MaxTailEnergy(); math.Abs(float64(got-want)) > 1e-9 {
		t.Errorf("MaxTailEnergy = %v, want %v", got, want)
	}
	// A dormancy delay longer than the full tail changes nothing.
	late := base.WithFastDormancy(100)
	if late.MaxTailEnergy() != base.MaxTailEnergy() {
		t.Error("late dormancy altered the max tail")
	}
}

func TestFastDormancyState(t *testing.T) {
	fd := Paper3G().WithFastDormancy(1.5)
	after := fd.TailDrainedAfter()
	if after != 1.5 {
		t.Errorf("TailDrainedAfter = %v, want the 1.5 s release", after)
	}
	for _, c := range []struct {
		gap  units.Seconds
		want bool
	}{{1.0, false}, {1.5, true}, {5, true}} {
		if got := (Tail{Gap: c.gap, EverActive: true}).Drained(after); got != c.want {
			t.Errorf("Drained at gap %v = %v, want %v", c.gap, got, c.want)
		}
	}
}

func TestFastDormancyValidation(t *testing.T) {
	p := Paper3G()
	p.Dormancy = -1
	if err := p.Validate(); err == nil {
		t.Error("negative dormancy accepted")
	}
}

func TestFastDormancyMachineIntegration(t *testing.T) {
	fd := Paper3G().WithFastDormancy(2)
	var m Tail
	m.Transfer()
	var sum units.MJ
	for i := 0; i < 10; i++ {
		sum += m.IdleSlot(&fd, 1)
	}
	want := fd.MaxTailEnergy()
	if math.Abs(float64(sum-want)) > 1e-9 {
		t.Errorf("tail sum = %v, want %v", sum, want)
	}
	if !m.Drained(fd.TailDrainedAfter()) {
		t.Error("tail not drained past the release")
	}
}

// Property: fast dormancy never increases tail energy, for any delay and
// gap, and the savings are monotone in the delay.
func TestFastDormancySavingsProperty(t *testing.T) {
	base := Paper3G()
	f := func(delayRaw, gapRaw uint16) bool {
		delay := units.Seconds(float64(delayRaw%100)/10) + 0.1
		gap := units.Seconds(float64(gapRaw%200) / 10)
		fd := base.WithFastDormancy(delay)
		if fd.TailEnergy(gap) > base.TailEnergy(gap)+1e-9 {
			return false
		}
		shorter := base.WithFastDormancy(delay / 2)
		return shorter.TailEnergy(gap) <= fd.TailEnergy(gap)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
