package experiments

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

func chaosTestOptions() ChaosOptions {
	o := DefaultChaosOptions()
	o.Users = 3
	o.VideoKB = 5000
	o.MaxSlots = 400
	o.SlotDeadline = 2 * time.Millisecond
	return o
}

func TestRunChaos(t *testing.T) {
	rep, err := RunChaos(chaosTestOptions())
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
	byName := map[string]ChaosRow{}
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
	for _, mutate := range []func(*ChaosOptions){
		func(o *ChaosOptions) { o.Users = 0 },
		func(o *ChaosOptions) { o.VideoKB = 0 },
		func(o *ChaosOptions) { o.MaxSlots = 0 },
		func(o *ChaosOptions) { o.SlotDeadline = 0 },
	} {
		o := DefaultChaosOptions()
		mutate(&o)
		if err := o.validate(); err == nil {
			t.Errorf("invalid chaos options accepted: %+v", o)
		}
	}
}

// TestAllParallelCancellation: a cancelled context must abort the
// parallel suite promptly — in-flight simulations stop at their next
// slot checkpoint — and leave no worker goroutines behind.
func TestAllParallelCancellation(t *testing.T) {
	r, err := NewRunner(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	// Cancel up front: the quick suite can outrun any mid-flight cancel
	// on fast machines, making the test racy. (Mid-run cancellation of a
	// simulation is covered by cell.TestRunCtxCancellation.)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan error, 1)
	go func() {
		_, err := r.AllParallel(ctx, 4)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled suite returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled AllParallel did not return")
	}
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
