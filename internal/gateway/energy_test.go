package gateway

import (
	"errors"
	"math"
	"testing"
	"time"

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

// twiceFailingEndpoint fails its first two Deliver calls transiently,
// then delegates to the wrapped LocalEndpoint.
type twiceFailingEndpoint struct {
	*LocalEndpoint
	delivers int
}

func (e *twiceFailingEndpoint) Deliver(p []byte) error {
	if e.delivers++; e.delivers <= 2 {
		return Transient(errors.New("injected drop"))
	}
	return e.LocalEndpoint.Deliver(p)
}

// TestFailedDeliveryChargedAlikeInBothModes: the radio spends a grant's
// energy at transmission whether or not the device absorbs it, so a
// session whose first two deliveries fail ends with the same transmission
// energy, tail energy and RRC tail in the synchronous and asynchronous
// delivery modes — including while its tail is still burning.
func TestFailedDeliveryChargedAlikeInBothModes(t *testing.T) {
	run := func(async bool) (Stats, rrc.Tail) {
		cfg := energyConfig()
		if async {
			// A deadline no delivery here can miss: the run does not
			// depend on the wall clock.
			cfg.Policy = Policy{AsyncDelivery: true, SlotDeadline: 10 * time.Second}
		}
		g, err := New(cfg, sched.NewDefault())
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		local, err := NewLocalEndpoint(signal.Constant(-70, signal.DefaultBounds), 400, true)
		if err != nil {
			t.Fatal(err)
		}
		ep := &twiceFailingEndpoint{LocalEndpoint: local}
		src, err := NewPatternSource(3000)
		if err != nil {
			t.Fatal(err)
		}
		id, err := g.Attach(ep, src)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			if _, err := g.Step(); err != nil {
				t.Fatal(err)
			}
			ep.Advance()
		}
		st, err := g.StatsFor(id)
		if err != nil {
			t.Fatal(err)
		}
		g.mu.Lock()
		defer g.mu.Unlock()
		return st, g.users[id].Tail
	}
	syncSt, syncTail := run(false)
	asyncSt, asyncTail := run(true)
	if syncSt.TransientErrors != 2 || !syncSt.Done || syncSt.TailEnergy == 0 || syncTail.Drained(rrc.Paper3G().TailDrainedAfter()) {
		t.Fatalf("scenario lost its shape: %+v, tail %+v", syncSt, syncTail)
	}
	if syncSt.TransEnergy != asyncSt.TransEnergy || syncSt.TailEnergy != asyncSt.TailEnergy || syncTail != asyncTail {
		t.Errorf("sync charged %v + %v (tail %+v), async %v + %v (tail %+v)",
			syncSt.TransEnergy, syncSt.TailEnergy, syncTail, asyncSt.TransEnergy, asyncSt.TailEnergy, asyncTail)
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
	// RRC tail (TestSlotViewCarriesTailState). This is an integration
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
