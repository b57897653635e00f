package main

import (
	"strings"
	"testing"
	"time"
)

func chaosTestOptions() chaosOptions {
	o := defaultChaosOptions()
	o.Users = 3
	o.VideoKB = 5000
	o.MaxSlots = 400
	o.SlotDeadline = 2 * time.Millisecond
	return o
}

func TestRunChaos(t *testing.T) {
	rep, err := runChaosScenario(chaosTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The clean baseline must show no degradation at all.
	b := rep.Baseline
	if b.Diag.TransientErrors != 0 || b.Diag.StaleSlots != 0 || b.Diag.MissedDeadlines != 0 {
		t.Errorf("baseline shows degradation: %+v", b.Diag)
	}
	if b.Completed != 3 || b.Detached != 0 {
		t.Errorf("baseline completed=%d detached=%d, want 3/0", b.Completed, b.Detached)
	}
	want := []string{"stall", "drop", "flap", "report-loss", "slow-read", "eof-early"}
	if len(rep.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(rep.Rows), len(want))
	}
	byName := map[string]chaosRow{}
	for i, row := range rep.Rows {
		if row.Fault != want[i] {
			t.Errorf("row %d = %q, want %q", i, row.Fault, want[i])
		}
		byName[row.Fault] = row
	}
	if byName["stall"].Diag.MissedDeadlines == 0 {
		t.Error("stall row shows no missed deadlines")
	}
	if byName["drop"].Diag.TransientErrors == 0 {
		t.Error("drop row shows no transient errors")
	}
	if byName["flap"].Diag.StaleSlots == 0 && byName["report-loss"].Diag.StaleSlots == 0 {
		t.Error("report-fault rows show no stale slots")
	}
	// Faulted delivery paths must not lose sessions: drops re-queue and
	// retry, stalls resolve.
	for _, name := range []string{"drop", "slow-read"} {
		if row := byName[name]; row.Completed != 3 {
			t.Errorf("%s row completed %d/3 sessions", name, row.Completed)
		}
	}
	// Site outage: the window is [5, 30) on one site.
	if rep.SiteOutage.DegradedSlots != 25 {
		t.Errorf("site outage degraded slots = %d, want 25", rep.SiteOutage.DegradedSlots)
	}
	if rep.SiteOutage.OutageRebufferSec < rep.SiteOutage.BaselineRebufferSec {
		t.Errorf("site outage rebuffer %v below baseline %v",
			rep.SiteOutage.OutageRebufferSec, rep.SiteOutage.BaselineRebufferSec)
	}
	for _, part := range []string{"baseline", "stall", "site-outage", "diagnostics"} {
		if !strings.Contains(rep.Render(), part) {
			t.Errorf("rendered report missing %q", part)
		}
	}
}

func TestChaosOptionsValidate(t *testing.T) {
	for _, mutate := range []func(*chaosOptions){
		func(o *chaosOptions) { o.Users = 0 },
		func(o *chaosOptions) { o.VideoKB = 0 },
		func(o *chaosOptions) { o.MaxSlots = 0 },
		func(o *chaosOptions) { o.SlotDeadline = 0 },
	} {
		o := defaultChaosOptions()
		mutate(&o)
		if err := o.validate(); err == nil {
			t.Errorf("invalid chaos options accepted: %+v", o)
		}
	}
}
