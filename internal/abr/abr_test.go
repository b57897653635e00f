package abr

import (
	"testing"
	"testing/quick"

	"jointstream/internal/units"
)

func TestNewLadder(t *testing.T) {
	l, err := newLadder(600, 150, 300)
	if err != nil {
		t.Fatal(err)
	}
	if l.Min() != 150 || l.Max() != 600 {
		t.Errorf("ladder = %v", l)
	}
	if _, err := newLadder(); err == nil {
		t.Error("empty ladder accepted")
	}
	if _, err := newLadder(100, 100); err == nil {
		t.Error("duplicate rung accepted")
	}
	if _, err := newLadder(100, 0); err == nil {
		t.Error("zero rung accepted")
	}
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if defaultLadder().Min() != 150 || defaultLadder().Max() != 750 {
		t.Error("default ladder edges wrong")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Ladder: nil, ReservoirSec: 10, CushionSec: 40},
		{Ladder: Ladder{0, 100}, ReservoirSec: 10, CushionSec: 40},
		{Ladder: Ladder{100, 50}, ReservoirSec: 10, CushionSec: 40},
		{Ladder: defaultLadder(), ReservoirSec: -1, CushionSec: 40},
		{Ladder: defaultLadder(), ReservoirSec: 40, CushionSec: 40},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
		if _, err := NewController(cfg); err == nil {
			t.Errorf("NewController accepted bad config %d", i)
		}
	}
}

func TestStartsAtLowestRung(t *testing.T) {
	c, err := NewController(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c.Current() != 150 {
		t.Errorf("initial rate = %v, want lowest rung", c.Current())
	}
}

func TestReservoirPinsMinimum(t *testing.T) {
	c, _ := NewController(DefaultConfig())
	for i := 0; i < 10; i++ {
		if got := c.Pick(5); got != 150 {
			t.Fatalf("Pick(5s buffer) = %v, want 150", got)
		}
	}
}

func TestCushionClimbsToMaximum(t *testing.T) {
	c, _ := NewController(DefaultConfig())
	// One rung per decision: reaching the top from the bottom takes
	// len(ladder)-1 picks at a full cushion.
	var got units.KBps
	for i := 0; i < len(defaultLadder()); i++ {
		got = c.Pick(60)
	}
	if got != 750 {
		t.Errorf("rate after climb = %v, want 750", got)
	}
}

func TestOneRungPerDecision(t *testing.T) {
	c, _ := NewController(DefaultConfig())
	first := c.Pick(60) // full cushion, but only one step up allowed
	if first != 300 {
		t.Errorf("first pick = %v, want one rung up (300)", first)
	}
	// Crash to an empty buffer: one step down at a time.
	down := c.Pick(0)
	if down != 150 {
		t.Errorf("downswitch = %v, want 150", down)
	}
}

func TestLinearRegionMonotone(t *testing.T) {
	cfg := DefaultConfig()
	c, _ := NewController(cfg)
	prevIdx := -1
	// With a steadily growing buffer, the selected rate never decreases.
	for b := units.Seconds(0); b <= 60; b += 2 {
		r := c.Pick(b)
		idx := 0
		for i, rung := range cfg.Ladder {
			if rung == r {
				idx = i
			}
		}
		if idx < prevIdx {
			t.Fatalf("rate decreased while buffer grew (buffer %v)", b)
		}
		prevIdx = idx
	}
}

// Property: Pick always returns a ladder rung, for any buffer level.
func TestPickAlwaysOnLadderProperty(t *testing.T) {
	cfg := DefaultConfig()
	onLadder := func(r units.KBps) bool {
		for _, rung := range cfg.Ladder {
			if rung == r {
				return true
			}
		}
		return false
	}
	f := func(levels []uint16) bool {
		c, err := NewController(cfg)
		if err != nil {
			return false
		}
		for _, lv := range levels {
			if !onLadder(c.Pick(units.Seconds(lv % 120))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWantSeconds(t *testing.T) {
	cfg := DefaultConfig() // cap 60 s
	if got := cfg.WantSeconds(0); got != 60 {
		t.Errorf("WantSeconds(0) = %v, want 60", got)
	}
	if got := cfg.WantSeconds(45); got != 15 {
		t.Errorf("WantSeconds(45) = %v, want 15", got)
	}
	if got := cfg.WantSeconds(60); got != 0 {
		t.Errorf("WantSeconds(60) = %v, want 0", got)
	}
	if got := cfg.WantSeconds(100); got != 0 {
		t.Errorf("WantSeconds(100) = %v, want 0 (over cap)", got)
	}
}
