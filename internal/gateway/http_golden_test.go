package gateway

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"jointstream/internal/rrc"
	"jointstream/internal/sched"
)

// TestHTTPBodiesGolden pins the monitoring API's JSON bodies byte for byte:
// key names, key order and number formatting of /stats, /stats?user=,
// /diag, /summary and /metrics after a fixed run. The tick histogram is
// replaced by fixed observations, so no body depends on the wall clock.
// Regenerate
// deliberately with
//
//	go test ./internal/gateway -run TestHTTPBodiesGolden -update
func TestHTTPBodiesGolden(t *testing.T) {
	cfg := testConfig()
	cfg.RRC = rrc.Paper3G()
	cfg.MaxSessions = 3
	g, err := New(cfg, sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	ep0, _ := attachUser(t, g, 1250, 400, -60)
	ep1, _ := attachUser(t, g, 50000, 350, -75)
	ep2, _ := attachUser(t, g, 3300.5, 500, -90)
	if _, err := g.Attach(ep0, &PatternSource{}); err == nil {
		t.Fatal("attach over the session cap admitted")
	}
	for i := 0; i < 6; i++ {
		if _, err := g.Step(); err != nil {
			t.Fatal(err)
		}
		ep0.Advance()
		ep1.Advance()
		ep2.Advance()
	}
	g.mu.Lock()
	shed := g.users[1]
	shed.rebufferSec, shed.transientErrors, shed.missedSlots = 2.5, 3, 4
	g.diag.Shed++
	g.detach(shed, detachShed)
	g.tickHist = newTickHist()
	for _, ms := range []float64{0.125, 0.5, 0.75, 3.25} {
		g.tickHist.Observe(ms)
	}
	g.mu.Unlock()
	g.BeginDrain()

	h := Handler(g)
	var got bytes.Buffer
	for _, path := range []string{"/stats", "/stats?user=1", "/diag", "/summary", "/metrics"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		fmt.Fprintf(&got, "GET %s %d %s\n%s", path, rec.Code, rec.Header().Get("Content-Type"), rec.Body.Bytes())
	}
	path := filepath.Join("testdata", "http_bodies.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("monitoring bodies differ from %s:\n got:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}
