package gateway

import (
	"encoding/json"
	"net/http/httptest"
	"testing"

	"jointstream/internal/rrc"
	"jointstream/internal/sched"
)

func monitoredGateway(t *testing.T) (*Gateway, *LocalEndpoint) {
	t.Helper()
	cfg := testConfig()
	cfg.RRC = rrc.Paper3G()
	g, err := New(cfg, sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	ep, _ := attachUser(t, g, 1000, 400, -60)
	return g, ep
}

func TestHTTPHealthz(t *testing.T) {
	g, _ := monitoredGateway(t)
	srv := httptest.NewServer(Handler(g))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("healthz status = %d", resp.StatusCode)
	}
}

func TestHTTPStats(t *testing.T) {
	g, ep := monitoredGateway(t)
	attachUser(t, g, 50000, 400, -60) // user 1: in service throughout, then shed
	for i := 0; i < 5; i++ {
		g.Step()
		ep.Advance()
	}
	// The serving path has its own tests; here the ledger is written
	// directly so that every served field has a value a zero cannot match.
	g.mu.Lock()
	shed := g.users[1]
	shed.rebufferSec, shed.transientErrors, shed.missedSlots = 2.5, 3, 4
	g.detach(shed, detachShed)
	g.mu.Unlock()
	srv := httptest.NewServer(Handler(g))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var all []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Fatalf("got %d users", len(all))
	}
	if all[0]["sent_kb"].(float64) <= 0 {
		t.Errorf("no bytes reported: %v", all[0])
	}
	if all[0]["trans_energy_mj"].(float64) <= 0 {
		t.Errorf("no energy reported: %v", all[0])
	}
	for key, want := range map[string][2]any{
		"rebuffer_sec":     {0.0, 2.5},
		"detach_reason":    {"", string(detachShed)},
		"transient_errors": {0.0, 3.0},
		"missed_slots":     {0.0, 4.0},
	} {
		for id, view := range all {
			if got, ok := view[key]; !ok || got != want[id] {
				t.Errorf("user %d: %s = %v (present %v), want %v", id, key, got, ok, want[id])
			}
		}
	}

	// Single-user query.
	resp2, err := srv.Client().Get(srv.URL + "/stats?user=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var one map[string]any
	if err := json.NewDecoder(resp2.Body).Decode(&one); err != nil {
		t.Fatal(err)
	}
	if one["id"].(float64) != 1 || one["rebuffer_sec"] != 2.5 {
		t.Errorf("wrong user: %v", one)
	}
}

func TestHTTPStatsErrors(t *testing.T) {
	g, _ := monitoredGateway(t)
	srv := httptest.NewServer(Handler(g))
	defer srv.Close()
	for path, want := range map[string]int{
		"/stats?user=abc":  400,
		"/stats?user=0abc": 400, // Sscanf("%d") answered this for user 0
		"/stats?user=0":    200,
		"/stats?user=99":   404,
	} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s status = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

func TestHTTPSummary(t *testing.T) {
	g, ep := monitoredGateway(t)
	for i := 0; i < 10 && !g.AllDone(); i++ {
		g.Step()
		ep.Advance()
	}
	g.mu.Lock()
	g.users[0].rebufferSec = 1.5
	g.mu.Unlock()
	srv := httptest.NewServer(Handler(g))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/summary")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sum map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	if sum["users"].(float64) != 1 {
		t.Errorf("summary users = %v", sum["users"])
	}
	if sum["scheduler"].(string) != "Default" {
		t.Errorf("scheduler = %v", sum["scheduler"])
	}
	if sum["all_done"].(bool) != true {
		t.Errorf("all_done = %v (slot %v)", sum["all_done"], sum["slot"])
	}
	if sum["sent_kb"].(float64) != 1000 {
		t.Errorf("sent_kb = %v", sum["sent_kb"])
	}
	if sum["rebuffer_sec"] != 1.5 {
		t.Errorf("rebuffer_sec = %v", sum["rebuffer_sec"])
	}
}

func TestHTTPSessionWindowedMetrics(t *testing.T) {
	g, ep := monitoredGateway(t)
	for i := 0; i < 10 && !g.AllDone(); i++ {
		g.Step()
		ep.Advance()
	}
	// One extra tick so the completion reached above is folded into the
	// session histograms (folding runs at the end of each Step).
	g.Step()

	m := g.sessionWindowMetrics()
	if m.EndedTotal != 1 || m.EndedWindow != 1 {
		t.Fatalf("ended = %d total / %d window, want 1/1", m.EndedTotal, m.EndedWindow)
	}
	if m.EnergyP50MJ <= 0 || m.EnergyP99MJ < m.EnergyP50MJ {
		t.Errorf("energy quantiles p50=%v p99=%v", m.EnergyP50MJ, m.EnergyP99MJ)
	}
	if m.RebufP50Sec < 0 || m.RebufP99Sec < m.RebufP50Sec {
		t.Errorf("rebuffer quantiles p50=%v p99=%v", m.RebufP50Sec, m.RebufP99Sec)
	}

	srv := httptest.NewServer(Handler(g))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	var mv map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&mv); err != nil {
		t.Fatal(err)
	}
	if mv["sessions_ended_total"].(float64) != 1 {
		t.Errorf("sessions_ended_total = %v", mv["sessions_ended_total"])
	}
	if mv["energy_p50_mj"].(float64) != m.EnergyP50MJ {
		t.Errorf("energy_p50_mj = %v, want %v", mv["energy_p50_mj"], m.EnergyP50MJ)
	}
	for _, k := range []string{"rebuffer_p50_sec", "rebuffer_p99_sec", "energy_p99_mj", "tick_p50_ms", "tick_p99_ms"} {
		if _, ok := mv[k]; !ok {
			t.Errorf("metrics missing field %q: %v", k, mv)
		}
	}
}

func TestSessionMetricsFoldOnDetach(t *testing.T) {
	g, _ := monitoredGateway(t)
	attachUser(t, g, 50000, 400, -60) // still in service after one slot
	g.Step()
	g.mu.Lock()
	u := g.users[1]
	g.detach(u, detachShed)
	g.detach(u, detachShed) // idempotent: must not fold twice
	g.mu.Unlock()
	// User 0 completed in the slot and folded when it retired; the
	// detached one must have folded exactly once more.
	if m := g.sessionWindowMetrics(); m.EndedTotal != 2 {
		t.Fatalf("ended total = %d after detach, want 2", m.EndedTotal)
	}
}

func TestHandlerPanicsOnNil(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Handler(nil)
}
