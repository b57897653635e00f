package main

import (
	"io"
	"reflect"
	"testing"
	"time"

	"jointstream/internal/gateway"
	"jointstream/internal/radio"
	"jointstream/internal/sched"
	"jointstream/internal/signal"
)

func gwConfig() gateway.Config {
	return gateway.Config{
		Tau:      1,
		Unit:     100,
		Capacity: 5000,
		Radio:    radio.Paper3G(),
		QueueCap: 10000,
	}
}

// runPlan drives one gateway run with every user wrapped by the plan and
// returns the per-user stats and the gateway diagnostics.
func runPlan(t *testing.T, plan faultPlan, users int) ([]gateway.Stats, gateway.Diag) {
	t.Helper()
	g, err := gateway.New(gwConfig(), sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < users; i++ {
		ep, err := gateway.NewLocalEndpoint(signal.Constant(-60, signal.DefaultBounds), 400, false)
		if err != nil {
			t.Fatal(err)
		}
		// Long sessions (many Deliver/Report calls) so probabilistic
		// faults actually fire.
		src, err := gateway.NewPatternSource(30000)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Attach(plan.wrapEndpoint(i, ep), plan.wrapSource(i, src)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500 && !g.AllDone(); i++ {
		if _, err := g.Step(); err != nil {
			t.Fatal(err)
		}
	}
	stats := make([]gateway.Stats, users)
	for i := range stats {
		st, err := g.StatsFor(i)
		if err != nil {
			t.Fatal(err)
		}
		stats[i] = st
	}
	return stats, g.Diagnostics()
}

func TestZeroPlanReturnsInputsUnchanged(t *testing.T) {
	var plan faultPlan
	ep, _ := gateway.NewLocalEndpoint(signal.Constant(-60, signal.DefaultBounds), 400, false)
	src, _ := gateway.NewPatternSource(1000)
	if got := plan.wrapEndpoint(0, ep); got != gateway.Endpoint(ep) {
		t.Error("zero plan wrapped the endpoint")
	}
	if got := plan.wrapSource(0, src); got != gateway.Source(src) {
		t.Error("zero plan wrapped the source")
	}
}

// TestZeroPlanMatchesBaseline: a run through zero-plan wrappers must be
// byte-identical to the unwrapped baseline.
func TestZeroPlanMatchesBaseline(t *testing.T) {
	base, baseDiag := runPlan(t, faultPlan{Seed: 1}, 3) // zero faults, wrappers elided
	var zero faultPlan
	got, gotDiag := runPlan(t, zero, 3)
	if !reflect.DeepEqual(base, got) || baseDiag != gotDiag {
		t.Errorf("zero plan diverged from baseline:\nbase %+v %+v\ngot  %+v %+v", base, baseDiag, got, gotDiag)
	}
}

// TestSeedDeterminism: the same seed and plan over the same traffic must
// reproduce stats and diagnostics exactly; a different seed must inject a
// different fault sequence.
func TestSeedDeterminism(t *testing.T) {
	plan := faultPlan{
		Seed: 42,
		Endpoint: endpointPlan{
			DropProb:       0.2,
			ReportLossProb: 0.1,
			FlapProb:       0.05,
			FlapSlots:      2,
		},
		Source: sourcePlan{SlowReadProb: 0.2, SlowReadMax: 50_000},
	}
	if err := plan.validate(); err != nil {
		t.Fatal(err)
	}
	a, aDiag := runPlan(t, plan, 3)
	b, bDiag := runPlan(t, plan, 3)
	if !reflect.DeepEqual(a, b) || aDiag != bDiag {
		t.Errorf("same seed diverged:\nrun1 %+v %+v\nrun2 %+v %+v", a, aDiag, b, bDiag)
	}
	if aDiag.TransientErrors == 0 && aDiag.StaleSlots == 0 {
		t.Error("plan injected no observable faults; determinism test is vacuous")
	}
	other := plan
	other.Seed = 43
	_, cDiag := runPlan(t, other, 3)
	if aDiag == cDiag {
		t.Error("different seeds produced identical diagnostics (suspicious)")
	}
}

// TestStallInjection: injected stalls longer than the slot deadline must
// surface as missed deadlines under the async delivery path, and the run
// must still complete.
func TestStallInjection(t *testing.T) {
	plan := faultPlan{
		Seed:     7,
		Endpoint: endpointPlan{StallProb: 0.9, StallFor: 50 * time.Millisecond},
	}
	cfg := gwConfig()
	// Small grants: the session spans several deliveries, so at 0.9 at
	// least one stall fires for any seed with overwhelming probability.
	cfg.Capacity = 500
	cfg.Policy = gateway.Policy{
		AsyncDelivery: true,
		SlotDeadline:  5 * time.Millisecond,
		// Stalls eventually succeed; keep the breaker from detaching the
		// user mid-test.
		BreakerTrips: -1,
	}
	g, err := gateway.New(cfg, sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ep, _ := gateway.NewLocalEndpoint(signal.Constant(-60, signal.DefaultBounds), 400, false)
	src, _ := gateway.NewPatternSource(3000)
	if _, err := g.Attach(plan.wrapEndpoint(0, ep), src); err != nil {
		t.Fatal(err)
	}
	// Stalls resolve on the wall clock, so bound the loop by time, not
	// iterations.
	for start := time.Now(); !g.AllDone() && time.Since(start) < 30*time.Second; {
		if _, err := g.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if !g.AllDone() {
		t.Fatal("stalled run never completed")
	}
	if d := g.Diagnostics(); d.MissedDeadlines == 0 {
		t.Error("no missed deadlines despite injected stalls")
	}
	if got := ep.ReceivedBytes(); got != 3_000_000 {
		t.Errorf("received %d bytes, want 3000000 (stalls must not lose data)", got)
	}
}

// TestEOFEarlyTruncatesStream: an origin that ends early must yield a
// complete (short) session, not a wedged one.
func TestEOFEarlyTruncatesStream(t *testing.T) {
	plan := faultPlan{Seed: 3, Source: sourcePlan{EOFEarlyAfter: 1_200_000}}
	g, err := gateway.New(gwConfig(), sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	ep, _ := gateway.NewLocalEndpoint(signal.Constant(-60, signal.DefaultBounds), 400, false)
	src, _ := gateway.NewPatternSource(3000)
	if _, err := g.Attach(ep, plan.wrapSource(0, src)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200 && !g.AllDone(); i++ {
		if _, err := g.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if !g.AllDone() {
		t.Fatal("truncated session never completed")
	}
	if got := ep.ReceivedBytes(); got != 1_200_000 {
		t.Errorf("received %d bytes, want exactly the truncation point 1200000", got)
	}
}

// TestSlowReadDelivery: slow reads stretch the session but every byte
// still arrives.
func TestSlowReadDelivery(t *testing.T) {
	plan := faultPlan{Seed: 9, Source: sourcePlan{SlowReadProb: 1, SlowReadMax: 10_000}}
	src, _ := gateway.NewPatternSource(100)
	wrapped := plan.wrapSource(0, src)
	var total int
	buf := make([]byte, 64_000)
	for {
		n, err := wrapped.Read(buf)
		if n > 10_000 {
			t.Fatalf("slow read returned %d bytes, cap is 10000", n)
		}
		total += n
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if total != 100_000 {
		t.Errorf("read %d bytes total, want 100000", total)
	}
}

func TestPlanValidate(t *testing.T) {
	bad := faultPlan{Endpoint: endpointPlan{StallProb: 0.5}}
	if err := bad.validate(); err == nil {
		t.Error("StallProb without StallFor accepted")
	}
	bad2 := faultPlan{Endpoint: endpointPlan{DropProb: 1.5}}
	if err := bad2.validate(); err == nil {
		t.Error("probability > 1 accepted")
	}
	good := faultPlan{Endpoint: endpointPlan{StallProb: 0.1, StallFor: time.Millisecond}}
	if err := good.validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}
