package experiments

import (
	"math"
	"testing"

	"jointstream/internal/cell"
	"jointstream/internal/rng"
	"jointstream/internal/sched"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// quickFramework is a small, fast scenario.
func quickFramework(t *testing.T) (*Framework, cell.Config, workload.Config) {
	t.Helper()
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
	fw, err := NewFramework(cellCfg, wl, 7)
	if err != nil {
		t.Fatal(err)
	}
	return fw, cellCfg, wl
}

func TestFrameworkRTM(t *testing.T) {
	fw, _, _ := quickFramework(t)
	def, err := fw.Default()
	if err != nil {
		t.Fatal(err)
	}
	res, phi, _, err := fw.RTM(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.SchedulerName != "RTMA" || def.SchedulerName != "Default" {
		t.Errorf("schedulers = %q vs %q", res.SchedulerName, def.SchedulerName)
	}
	if phi <= 0 {
		t.Errorf("Phi = %v", phi)
	}
	// RTM mode must cut rebuffering versus the default under contention.
	if res.MeanRebufferPerUser() >= def.MeanRebufferPerUser() {
		t.Errorf("RTMA rebuffer %v, Default %v: no reduction", res.MeanRebufferPerUser(), def.MeanRebufferPerUser())
	}
}

func TestFrameworkEM(t *testing.T) {
	fw, _, _ := quickFramework(t)
	def, err := fw.Default()
	if err != nil {
		t.Fatal(err)
	}
	res, omega, v, err := fw.EM(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.SchedulerName != "EMA" {
		t.Errorf("scheduler = %q", res.SchedulerName)
	}
	if v <= 0 || omega <= 0 {
		t.Errorf("V = %v, Omega = %v", v, omega)
	}
	// EM mode must save energy versus the default.
	if res.MeanEnergyPerUser() >= def.MeanEnergyPerUser() {
		t.Errorf("EMA energy %v, Default %v: no saving", res.MeanEnergyPerUser(), def.MeanEnergyPerUser())
	}
	// And keep rebuffering within the bound (PC ≤ Ω), with slack for the
	// bisection's resolution.
	if float64(res.PC()) > float64(omega)*1.05 {
		t.Errorf("PC %v exceeds Omega %v", res.PC(), omega)
	}
}

func TestFrameworkEMWithExplicitV(t *testing.T) {
	fw, _, _ := quickFramework(t)
	if _, _, v, err := fw.EM(1, 0.3); err != nil || v != 0.3 {
		t.Errorf("V = %v (err %v), want explicit 0.3", v, err)
	}
}

func TestFrameworkAdaptiveEM(t *testing.T) {
	fw, _, _ := quickFramework(t)
	def, err := fw.Default()
	if err != nil {
		t.Fatal(err)
	}
	res, omega, v, err := fw.AdaptiveEM(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.SchedulerName != "AdaptiveEMA" {
		t.Errorf("scheduler = %q", res.SchedulerName)
	}
	if v <= 0 {
		t.Errorf("final adapted V = %v", v)
	}
	// The online controller should still save energy versus Default.
	if res.MeanEnergyPerUser() >= def.MeanEnergyPerUser() {
		t.Errorf("AdaptiveEMA energy %v, Default %v: no saving", res.MeanEnergyPerUser(), def.MeanEnergyPerUser())
	}
	// And track the stall budget within a reasonable factor (online
	// adaptation is looser than offline calibration).
	if float64(res.PC()) > float64(omega)*3 {
		t.Errorf("adaptive PC %v far above Omega %v", res.PC(), omega)
	}
}

func TestFrameworkValidation(t *testing.T) {
	_, cellCfg, wl := quickFramework(t)
	badCell := cellCfg
	badCell.Capacity = -1
	badWorkload := wl
	badWorkload.Users = -3
	for i, c := range []struct {
		cell cell.Config
		wl   workload.Config
	}{{badCell, wl}, {cellCfg, badWorkload}} {
		if _, err := NewFramework(c.cell, c.wl, 1); err == nil {
			t.Errorf("bad framework %d accepted", i)
		}
	}
	fw, _, _ := quickFramework(t)
	for _, alpha := range []float64{-1, 0, math.NaN()} {
		if _, _, _, err := fw.RTM(alpha); err == nil {
			t.Errorf("alpha %v accepted", alpha)
		}
	}
	for _, bad := range []float64{-1, math.NaN()} {
		if _, _, _, err := fw.EM(bad, 0); err == nil {
			t.Errorf("beta %v accepted", bad)
		}
		if _, _, _, err := fw.EM(1, bad); err == nil {
			t.Errorf("V %v accepted", bad)
		}
		if _, _, _, err := fw.AdaptiveEM(bad); err == nil {
			t.Errorf("adaptive beta %v accepted", bad)
		}
	}
}

func TestFrameworkDeterministic(t *testing.T) {
	a, _, _ := quickFramework(t)
	b, _, _ := quickFramework(t)
	ra, _, _, err := a.RTM(1)
	if err != nil {
		t.Fatal(err)
	}
	rb, _, _, err := b.RTM(1)
	if err != nil {
		t.Fatal(err)
	}
	if ra.MeanEnergyPerUser() != rb.MeanEnergyPerUser() || ra.MeanRebufferPerUser() != rb.MeanRebufferPerUser() {
		t.Error("same-seed framework runs diverged")
	}
}

// summary is what a framework run reports of a result.
type summary struct {
	slots              int
	rebuffer, pc       units.Seconds
	energy, tail, pe   units.MJ
	transPerActiveSlot units.MJ
}

func summarize(res *cell.Result) summary {
	return summary{res.Slots, res.MeanRebufferPerUser(), res.PC(), res.MeanEnergyPerUser(),
		res.TotalTailEnergy(), res.PE(), res.TransEnergyPerActiveSlot()}
}

// TestFrameworkMatchesRecordedRuns: the framework records totals only, on
// its runner's shared workload and link table, and its runs are what
// direct runs at the default record level (a per-slot series kept) give —
// Default and each mode's scheduler, rebuilt from the derived budget or
// weight on a freshly generated workload.
func TestFrameworkMatchesRecordedRuns(t *testing.T) {
	fw, cellCfg, wl := quickFramework(t)
	if cellCfg.Record != cell.RecordSlots {
		t.Fatalf("test premise: record level %d", cellCfg.Record)
	}
	direct := func(s sched.Scheduler) summary {
		t.Helper()
		sessions, err := workload.Generate(wl, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		sim, err := cell.New(cellCfg, sessions, s)
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
		return summarize(res)
	}
	byName := func(name string, p sched.Params) sched.Scheduler {
		t.Helper()
		p.Radio, p.RRC = cellCfg.Radio, cellCfg.RRC
		s, err := sched.ByName(name, p)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	check := func(name string, res *cell.Result, err error, want summary) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if got := summarize(res); got != want {
			t.Errorf("%s: framework %+v, recorded run %+v", name, got, want)
		}
	}

	def, err := fw.Default()
	check("default", def, err, direct(byName("default", sched.Params{})))
	for _, alpha := range []float64{0.8, 1, 1.2} {
		res, phi, _, err := fw.RTM(alpha)
		check("rtma", res, err, direct(byName("rtma", sched.Params{Budget: phi})))
	}
	for _, beta := range []float64{0.6, 1, 1.5} {
		res, _, v, err := fw.EM(beta, 0)
		check("ema", res, err, direct(byName("ema", sched.Params{V: v})))
	}
	res, omega, v, err := fw.AdaptiveEM(1)
	ae, aerr := sched.NewAdaptiveEMA(sched.AdaptiveEMAConfig{Omega: omega, RRC: cellCfg.RRC})
	if aerr != nil {
		t.Fatal(aerr)
	}
	check("adaptive-ema", res, err, direct(ae))
	if ae.V() != v {
		t.Errorf("adaptive-ema: final V %v, recorded run %v", v, ae.V())
	}
}
