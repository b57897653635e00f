package gateway

import (
	"math"
	"testing"

	"jointstream/internal/radio"
	"jointstream/internal/rrc"
	"jointstream/internal/sched"
	"jointstream/internal/signal"
	"jointstream/internal/units"
)

func energyConfig() Config {
	cfg := testConfig()
	cfg.RRC = rrc.Paper3G()
	return cfg
}

func TestEnergyAccountingDisabledByDefault(t *testing.T) {
	g, _ := New(testConfig(), sched.NewDefault())
	ep, id := attachUser(t, g, 1000, 400, -60)
	for i := 0; i < 20 && !g.AllDone(); i++ {
		g.Step()
		ep.Advance()
	}
	st, _ := g.StatsFor(id)
	if st.TransEnergy != 0 || st.TailEnergy != 0 {
		t.Errorf("energy tracked without RRC profile: %+v", st)
	}
}

func TestTransmissionEnergyMatchesEq3(t *testing.T) {
	g, err := New(energyConfig(), sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	ep, id := attachUser(t, g, 2000, 400, -60)
	for i := 0; i < 30 && !g.AllDone(); i++ {
		if _, err := g.Step(); err != nil {
			t.Fatal(err)
		}
		ep.Advance()
	}
	st, _ := g.StatsFor(id)
	// Constant -60 dBm channel: energy = size x P(-60).
	perKB := float64(radio.Paper3G().Power.EnergyPerKB(-60))
	want := 2000 * perKB
	if math.Abs(float64(st.TransEnergy)-want) > 1e-6 {
		t.Errorf("TransEnergy = %v, want %v", st.TransEnergy, want)
	}
	if st.Energy() != st.TransEnergy+st.TailEnergy {
		t.Error("Energy() mismatch")
	}
}

func TestTailEnergyAccruesWhileIdle(t *testing.T) {
	// Capacity fits one user per slot; the proportional-fair scheduler
	// rotates grants, so each user idles between transfers and pays tail
	// energy during the gaps. (A user that never transfers at all has no
	// pending tail — the never-active rule — which is why this test needs
	// rotation rather than outright starvation.)
	cfg := energyConfig()
	cfg.Capacity = 100 // 1 unit per slot
	pf, err := sched.NewProportionalFair(5)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(cfg, pf)
	if err != nil {
		t.Fatal(err)
	}
	epA, _ := attachUser(t, g, 100000, 400, -60)
	epB, idB := attachUser(t, g, 100000, 400, -60)
	for i := 0; i < 12; i++ {
		g.Step()
		epA.Advance()
		epB.Advance()
	}
	st, _ := g.StatsFor(idB)
	if st.SentKB == 0 {
		t.Fatalf("PF starved user 1 entirely: %+v", st)
	}
	if st.TailEnergy <= 0 {
		t.Errorf("rotating user accrued no tail energy: %+v", st)
	}
}

func TestFastDormancyReducesGatewayTail(t *testing.T) {
	// Same rotating setup; a sub-slot fast-dormancy release must shrink
	// the tail paid during the one-slot gaps between grants.
	run := func(profile rrc.Profile) units.MJ {
		cfg := energyConfig()
		cfg.RRC = profile
		cfg.Capacity = 100
		pf, err := sched.NewProportionalFair(5)
		if err != nil {
			t.Fatal(err)
		}
		g, err := New(cfg, pf)
		if err != nil {
			t.Fatal(err)
		}
		epA, _ := attachUser(t, g, 100000, 400, -60)
		epB, idB := attachUser(t, g, 100000, 400, -60)
		for i := 0; i < 12; i++ {
			g.Step()
			epA.Advance()
			epB.Advance()
		}
		st, _ := g.StatsFor(idB)
		return st.TailEnergy
	}
	normal := run(rrc.Paper3G())
	fd := run(rrc.Paper3G().WithFastDormancy(0.5))
	if fd >= normal {
		t.Errorf("fast dormancy tail %v not below normal %v", fd, normal)
	}
}

func TestInvalidRRCProfileRejected(t *testing.T) {
	cfg := testConfig()
	cfg.RRC = rrc.Profile{Pd: -1}
	if _, err := New(cfg, sched.NewDefault()); err == nil {
		t.Error("invalid RRC profile accepted")
	}
}

func TestEMASchedulerSeesTailState(t *testing.T) {
	// EMA inside the gateway must still deliver: its tail-aware cost reads
	// TailGap / NeverActive from the slot view, which follow the session's
	// RRC machine (TestSlotViewCarriesTailState). This is an integration
	// smoke test.
	em, err := sched.NewEMA(sched.EMAConfig{V: 0.1, RRC: rrc.Paper3G()})
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(energyConfig(), em)
	if err != nil {
		t.Fatal(err)
	}
	tr := signal.Constant(-65, signal.DefaultBounds)
	ep, err := NewLocalEndpoint(tr, 400, false)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := NewPatternSource(1500)
	id, err := g.Attach(ep, src)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60 && !g.AllDone(); i++ {
		g.Step()
		ep.Advance()
	}
	st, _ := g.StatsFor(id)
	if st.SentKB != 1500 {
		t.Errorf("EMA gateway delivered %v, want 1500", st.SentKB)
	}
	if st.TransEnergy <= 0 {
		t.Error("no transmission energy accounted")
	}
}
