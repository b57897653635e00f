package core

import (
	"testing"

	"jointstream/internal/cell"
	"jointstream/internal/rng"
	"jointstream/internal/sched"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// quickConfig returns a small, fast scenario.
func quickConfig(mode Mode) Config {
	cellCfg := cell.PaperConfig()
	cellCfg.Capacity = 3000
	cellCfg.MaxSlots = 1500
	wl := workload.PaperDefaults(6)
	wl.SizeMin = 8 * units.Megabyte
	wl.SizeMax = 16 * units.Megabyte
	// Sessions here last ~50 slots instead of ~1500; scale the channel
	// fade period down with them so each session still spans multiple
	// good/bad phases like the paper-scale workload does.
	wl.Signal.PeriodSlots = 24
	return Config{
		Mode:             mode,
		Cell:             cellCfg,
		Workload:         wl,
		Seed:             7,
		CalibrationSteps: 4,
	}
}

func TestModeString(t *testing.T) {
	if ModeRTM.String() != "RTM" || ModeEM.String() != "EM" {
		t.Error("mode strings wrong")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Error("unknown mode string wrong")
	}
}

func TestRunRTM(t *testing.T) {
	rep, err := Run(quickConfig(ModeRTM))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != ModeRTM {
		t.Errorf("mode = %v", rep.Mode)
	}
	if rep.Result.Scheduler != "RTMA" || rep.Reference.Scheduler != "Default" {
		t.Errorf("schedulers = %q vs %q", rep.Result.Scheduler, rep.Reference.Scheduler)
	}
	if rep.Phi <= 0 {
		t.Errorf("Phi = %v", rep.Phi)
	}
	if rep.Result.Slots <= 0 || rep.Reference.Slots <= 0 {
		t.Error("missing slot counts")
	}
	// RTM mode must cut rebuffering versus the default under contention.
	if rep.RebufferReduction <= 0 {
		t.Errorf("RebufferReduction = %v, want > 0", rep.RebufferReduction)
	}
}

func TestRunEM(t *testing.T) {
	rep, err := Run(quickConfig(ModeEM))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Scheduler != "EMA" {
		t.Errorf("scheduler = %q", rep.Result.Scheduler)
	}
	if rep.V <= 0 {
		t.Errorf("V = %v", rep.V)
	}
	if rep.Omega <= 0 {
		t.Errorf("Omega = %v", rep.Omega)
	}
	// EM mode must save energy versus the default.
	if rep.EnergyReduction <= 0 {
		t.Errorf("EnergyReduction = %v, want > 0", rep.EnergyReduction)
	}
	// And keep rebuffering within the bound (PC ≤ Ω), with slack for the
	// coarse quick calibration.
	if float64(rep.Result.PC) > float64(rep.Omega)*1.05 {
		t.Errorf("PC %v exceeds Omega %v", rep.Result.PC, rep.Omega)
	}
}

func TestRunEMWithExplicitV(t *testing.T) {
	cfg := quickConfig(ModeEM)
	cfg.V = 0.3
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.V != 0.3 {
		t.Errorf("V = %v, want explicit 0.3", rep.V)
	}
}

func TestRunValidation(t *testing.T) {
	bad := []Config{
		{Mode: Mode(9)},
		{Mode: ModeRTM, Alpha: -1},
		{Mode: ModeEM, Beta: -1},
		{Mode: ModeEM, V: -1},
		{Mode: ModeRTM, Users: -3},
		{Mode: ModeRTM, CalibrationSteps: -1},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestRunDefaultsApplied(t *testing.T) {
	// A zero-ish config should pick paper defaults and still run; use a
	// trimmed workload for speed.
	cfg := Config{Mode: ModeRTM}
	cfg.Workload = workload.PaperDefaults(3)
	cfg.Workload.SizeMin = 5 * units.Megabyte
	cfg.Workload.SizeMax = 10 * units.Megabyte
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Slots == 0 {
		t.Error("defaulted run produced no slots")
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(quickConfig(ModeRTM))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickConfig(ModeRTM))
	if err != nil {
		t.Fatal(err)
	}
	if a.Result.MeanEnergyPerUser != b.Result.MeanEnergyPerUser ||
		a.Result.MeanRebufferPerUser != b.Result.MeanRebufferPerUser {
		t.Error("same-seed core runs diverged")
	}
}

func TestRunEMAdaptive(t *testing.T) {
	cfg := quickConfig(ModeEM)
	cfg.Adaptive = true
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Scheduler != "AdaptiveEMA" {
		t.Errorf("scheduler = %q", rep.Result.Scheduler)
	}
	if rep.V <= 0 {
		t.Errorf("final adapted V = %v", rep.V)
	}
	// The online controller should still save energy versus Default.
	if rep.EnergyReduction <= 0 {
		t.Errorf("adaptive EnergyReduction = %v, want > 0", rep.EnergyReduction)
	}
	// And track the stall budget within a reasonable factor (online
	// adaptation is looser than offline calibration).
	if float64(rep.Result.PC) > float64(rep.Omega)*3 {
		t.Errorf("adaptive PC %v far above Omega %v", rep.Result.PC, rep.Omega)
	}
}

// TestRunMatchesRecordedRuns: Run records totals only, and its Report is
// what runs at the default record level (a per-slot series kept) give —
// the reference and the mode's scheduler, rebuilt from the Report's
// derived budget or weight, summarized field for field.
func TestRunMatchesRecordedRuns(t *testing.T) {
	for _, mode := range []Mode{ModeRTM, ModeEM} {
		cfg, err := quickConfig(mode).normalize()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p := sched.Params{Budget: rep.Phi, V: rep.V, Radio: cfg.Cell.Radio, RRC: cfg.Cell.RRC}
		name := map[Mode]string{ModeRTM: "rtma", ModeEM: "ema"}[mode]
		for _, arm := range []struct {
			name string
			got  ModeResult
		}{{"default", rep.Reference}, {name, rep.Result}} {
			s, err := sched.ByName(arm.name, p)
			if err != nil {
				t.Fatal(err)
			}
			wl, err := workload.Generate(cfg.Workload, rng.New(cfg.Seed))
			if err != nil {
				t.Fatal(err)
			}
			if cfg.Cell.Record != cell.RecordSlots {
				t.Fatalf("test premise: record level %d", cfg.Cell.Record)
			}
			sim, err := cell.New(cfg.Cell, wl, s)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(res.PerSlot) == 0 {
				t.Fatal("test premise: the recorded run kept no per-slot series")
			}
			if want := summarize(res); arm.got != want {
				t.Errorf("%v %s: Report %+v, recorded run %+v", mode, arm.name, arm.got, want)
			}
		}
	}
}
