package deploy

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

func TestSiteOutageValidation(t *testing.T) {
	cfg := twoSites()
	cfg.Outages = []SiteOutage{{Site: 5, From: 0, To: 10}}
	if err := cfg.validate(); err == nil {
		t.Error("outage naming unknown site accepted")
	}
	cfg.Outages = []SiteOutage{{Site: 0, From: 10, To: 5}}
	if err := cfg.validate(); err == nil {
		t.Error("inverted outage window accepted")
	}
	cfg.Outages = []SiteOutage{{Site: 1, From: 3, To: 9}}
	if err := cfg.validate(); err != nil {
		t.Errorf("valid outage rejected: %v", err)
	}
}

// TestSiteOutageSurvival: a mid-run outage of one site must degrade only
// that site, cost it rebuffering, and still let every session finish —
// attachment survives the window.
func TestSiteOutageSurvival(t *testing.T) {
	cfg := twoSites()
	cfg.Policy = RoundRobin // both sites populated
	cfg.Outages = []SiteOutage{{Site: 0, From: 5, To: 25}}
	sessions := smallSessions(t, 6)
	res, err := Run(context.Background(), cfg, sessions, defaultFactory)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.DegradedSlots(); got != 20 {
		t.Errorf("fleet degraded slots = %d, want 20", got)
	}
	if st := res.Fleet.PerSite[0]; st.Users == 0 || st.DegradedSlots != 20 {
		t.Errorf("site 0 degraded slots = %+v, want 20", st)
	}
	if st := res.Fleet.PerSite[1]; st.Users == 0 || st.DegradedSlots != 0 {
		t.Error("outage leaked onto site 1")
	}
	// A closed cell stops short of its horizon only once every session's
	// playback has completed.
	for si, st := range res.Fleet.PerSite {
		if st.Slots >= cfg.Sites[si].Cell.MaxSlots {
			t.Errorf("site %d ran its whole %d-slot horizon: a session never completed after the outage", si, st.Slots)
		}
	}
	// The same fleet without the outage must rebuffer strictly less.
	base, err := Run(context.Background(), func() Config {
		c := twoSites()
		c.Policy = RoundRobin
		return c
	}(), smallSessions(t, 6), defaultFactory)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalRebuffer() <= base.TotalRebuffer() {
		t.Errorf("outage rebuffer %v not worse than baseline %v", res.TotalRebuffer(), base.TotalRebuffer())
	}
}

// TestRunCancellationNoGoroutineLeak: cancelling mid-run must return
// promptly and leave no worker goroutines behind.
func TestRunCancellationNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, twoSites(), smallSessions(t, 6), defaultFactory)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled deploy.Run did not return")
	}
	// Give the pool's workers a moment to unwind, then compare counts.
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("goroutines leaked: before %d, after %d", before, runtime.NumGoroutine())
		case <-time.After(10 * time.Millisecond):
		}
	}
}
