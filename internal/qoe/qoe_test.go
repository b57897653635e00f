package qoe

import (
	"math"
	"testing"

	"jointstream/internal/abr"
	"jointstream/internal/cell"
	"jointstream/internal/rng"
	"jointstream/internal/sched"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

func TestWeightsValidate(t *testing.T) {
	if err := DefaultWeights(450).validate(); err != nil {
		t.Fatalf("default weights invalid: %v", err)
	}
	bad := []Weights{
		{RefRate: 0, Lambda: 1, Mu: 1},
		{RefRate: 450, Lambda: -1},
		{RefRate: 450, Mu: -1},
		{RefRate: 450, MuStartup: -1},
	}
	for i, w := range bad {
		if err := w.validate(); err == nil {
			t.Errorf("bad weights %d accepted", i)
		}
	}
}

func TestScoreComponents(t *testing.T) {
	w := Weights{RefRate: 400, Lambda: 1, Mu: 3, MuStartup: 1.5}
	// 100 played slots at reference quality, 2 switches, 4 s stall, 1 s startup:
	// 100 - 2 - 12 - 1.5 = 84.5
	s := Session{MeanQuality: 400, PlayedSlots: 100, Switches: 2, Rebuffer: 4, Startup: 1}
	got, err := w.score(s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-84.5) > 1e-9 {
		t.Errorf("Score = %v, want 84.5", got)
	}
	// Higher quality scores proportionally higher.
	s.MeanQuality = 800
	got2, _ := w.score(s)
	if math.Abs(got2-184.5) > 1e-9 {
		t.Errorf("Score(2x quality) = %v, want 184.5", got2)
	}
}

func TestScoreValidation(t *testing.T) {
	w := DefaultWeights(400)
	if _, err := w.score(Session{PlayedSlots: -1}); err == nil {
		t.Error("negative slots accepted")
	}
	if _, err := (Weights{}).score(Session{}); err == nil {
		t.Error("invalid weights accepted")
	}
}

func TestFromUserAttributesStartup(t *testing.T) {
	u := cell.UserTotals{Rebuffer: 5, QualitySum: 400 * 10, QualitySlots: 10, QualitySwitches: 3}
	s := fromUser(u, 1)
	if s.Startup != 1 || s.Rebuffer != 4 {
		t.Errorf("startup split wrong: %+v", s)
	}
	if s.MeanQuality != 400 || s.Switches != 3 {
		t.Errorf("components wrong: %+v", s)
	}
	// No stall at all: nothing attributed to startup.
	s2 := fromUser(cell.UserTotals{}, 1)
	if s2.Startup != 0 || s2.Rebuffer != 0 {
		t.Errorf("zero-stall split wrong: %+v", s2)
	}
}

func TestMeanScoreEndToEnd(t *testing.T) {
	cfg := cell.PaperConfig()
	cfg.Capacity = 4000
	cfg.MaxSlots = 600
	a := abr.DefaultConfig()
	cfg.ABR = &a
	wlCfg := workload.PaperDefaults(4)
	wlCfg.SizeMin = 30 * units.Megabyte
	wlCfg.SizeMax = 40 * units.Megabyte
	wlCfg.Signal.PeriodSlots = 48
	wl, err := workload.Generate(wlCfg, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := cell.New(cfg, wl, sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	w := DefaultWeights(450)
	score, err := MeanScore(w, res, cfg.Tau)
	if err != nil {
		t.Fatal(err)
	}
	if score <= 0 {
		t.Errorf("mean QoE = %v, want positive for a mostly-smooth run", score)
	}
	if _, err := MeanScore(w, &cell.Result{}, 1); err == nil {
		t.Error("empty result accepted")
	}
}

func TestMoreStallsLowerScore(t *testing.T) {
	w := DefaultWeights(400)
	base := Session{MeanQuality: 400, PlayedSlots: 100}
	s1, _ := w.score(base)
	stalled := base
	stalled.Rebuffer = 10
	s2, _ := w.score(stalled)
	if s2 >= s1 {
		t.Errorf("stalls did not lower QoE: %v vs %v", s2, s1)
	}
}
