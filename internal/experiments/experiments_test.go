package experiments

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"jointstream/internal/cell"
	"jointstream/internal/sched"
)

func quickRunner(t *testing.T) *Runner {
	t.Helper()
	r, err := NewRunner(QuickOptions())
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	return r
}

func TestOptionsValidate(t *testing.T) {
	good := QuickOptions()
	if err := good.validate(); err != nil {
		t.Fatalf("quick options invalid: %v", err)
	}
	mutations := []struct {
		name string
		f    func(*Options)
	}{
		{"empty users", func(o *Options) { o.UserCounts = nil }},
		{"zero user count", func(o *Options) { o.UserCounts = []int{0} }},
		{"empty sizes", func(o *Options) { o.AvgSizesMB = nil }},
		{"negative size", func(o *Options) { o.AvgSizesMB = []float64{-1} }},
		{"zero cdf users", func(o *Options) { o.CDFUsers = 0 }},
		{"empty alphas", func(o *Options) { o.Alphas = nil }},
		{"zero calibration", func(o *Options) { o.CalibrationSteps = 0 }},
	}
	for _, m := range mutations {
		o := QuickOptions()
		m.f(&o)
		if err := o.validate(); err == nil {
			t.Errorf("%s: accepted", m.name)
		}
		if _, err := NewRunner(o); err == nil {
			t.Errorf("%s: NewRunner accepted", m.name)
		}
	}
}

func checkFigure(t *testing.T, fig *Figure, wantSeries int) {
	t.Helper()
	if fig == nil {
		t.Fatal("nil figure")
	}
	if len(fig.Series) != wantSeries {
		t.Fatalf("%s: got %d series, want %d", fig.ID, len(fig.Series), wantSeries)
	}
	for _, s := range fig.Series {
		if len(s.X) == 0 || len(s.X) != len(s.Y) {
			t.Errorf("%s/%s: bad series lengths x=%d y=%d", fig.ID, s.Label, len(s.X), len(s.Y))
		}
		for i, y := range s.Y {
			if y < 0 {
				t.Errorf("%s/%s: negative y[%d]=%v", fig.ID, s.Label, i, y)
			}
		}
	}
}

func TestFig2And3ShareRuns(t *testing.T) {
	r := quickRunner(t)
	f2, err := r.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, f2, 2)
	runsAfterFig2 := r.cacheSize()
	f3, err := r.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, f3, 2)
	if r.cacheSize() != runsAfterFig2 {
		t.Errorf("Fig3 re-simulated: cache grew %d -> %d", runsAfterFig2, r.cacheSize())
	}
	// CDF y-axes span [0, 1].
	for _, s := range f2.Series {
		if s.Y[0] != 0 || s.Y[len(s.Y)-1] != 1 {
			t.Errorf("Fig2/%s: CDF endpoints %v..%v", s.Label, s.Y[0], s.Y[len(s.Y)-1])
		}
	}
}

func TestFig2FairnessSane(t *testing.T) {
	// The paper-scale fairness ordering (RTMA well above Default) only
	// emerges under heavy contention; see the contended end-to-end test in
	// internal/cell and the full-scale results in EXPERIMENTS.md. At the
	// quick scale we check the CDF is structurally sound and RTMA's median
	// fairness is decent in absolute terms.
	r := quickRunner(t)
	fig, err := r.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	med := func(s Series) float64 {
		for i, p := range s.Y {
			if p >= 0.5 {
				return s.X[i]
			}
		}
		return s.X[len(s.X)-1]
	}
	if m := med(fig.Series[1]); m < 0.5 {
		t.Errorf("RTMA median fairness %v below 0.5", m)
	}
	for _, s := range fig.Series {
		for _, x := range s.X {
			if x < 0 || x > 1+1e-9 {
				t.Errorf("%s: fairness sample %v outside [0,1]", s.Label, x)
			}
		}
	}
}

func TestFig4Sweeps(t *testing.T) {
	r := quickRunner(t)
	f4a, err := r.Fig4a()
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, f4a, 1+len(r.opts.Alphas))
	if got := len(f4a.Series[0].X); got != len(r.opts.UserCounts) {
		t.Errorf("Fig4a x-axis has %d points", got)
	}
	f4b, err := r.Fig4b()
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, f4b, 1+len(r.opts.Alphas))
	if got := len(f4b.Series[0].X); got != len(r.opts.AvgSizesMB) {
		t.Errorf("Fig4b x-axis has %d points", got)
	}
}

func TestFig5Comparisons(t *testing.T) {
	r := quickRunner(t)
	f5a, err := r.Fig5a()
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, f5a, 4)
	f5b, err := r.Fig5b()
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, f5b, 8) // four algorithms x (total, tail)
	// Tail series must not exceed the total series.
	for i := 0; i < len(f5b.Series); i += 2 {
		total, tail := f5b.Series[i], f5b.Series[i+1]
		if !strings.HasSuffix(tail.Label, "(tail)") {
			t.Fatalf("series %d not a tail series: %q", i+1, tail.Label)
		}
		for j := range total.Y {
			if tail.Y[j] > total.Y[j]+1e-9 {
				t.Errorf("%s: tail %v exceeds total %v", tail.Label, tail.Y[j], total.Y[j])
			}
		}
	}
}

func TestFig6And7(t *testing.T) {
	r := quickRunner(t)
	f6, err := r.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, f6, 2)
	f7, err := r.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, f7, 2)
}

func TestFig8Sweeps(t *testing.T) {
	r := quickRunner(t)
	f8a, err := r.Fig8a()
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, f8a, 1+len(r.opts.Betas))
	f8b, err := r.Fig8b()
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, f8b, 1+len(r.opts.Betas))
}

func TestFig9(t *testing.T) {
	r := quickRunner(t)
	f9a, err := r.Fig9a()
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, f9a, 4)
	f9b, err := r.Fig9b()
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, f9b, 4)
}

func TestFig10(t *testing.T) {
	r := quickRunner(t)
	f10, err := r.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, f10, 3)
}

func TestClaims(t *testing.T) {
	r := quickRunner(t)
	claims, err := r.Claims()
	if err != nil {
		t.Fatal(err)
	}
	if len(claims) != 6 {
		t.Fatalf("got %d claims, want 6", len(claims))
	}
	ids := map[string]bool{}
	for _, c := range claims {
		if c.ID == "" || c.Statement == "" || c.Context == "" {
			t.Errorf("claim %+v incomplete", c)
		}
		if ids[c.ID] {
			t.Errorf("duplicate claim ID %s", c.ID)
		}
		ids[c.ID] = true
		if c.Met != (c.Measured >= c.PaperThreshold) {
			t.Errorf("claim %s: Met flag inconsistent", c.ID)
		}
	}
}

func TestCalibrationMonotonicity(t *testing.T) {
	// PC(V) should be non-decreasing in V on the quick scenario.
	r := quickRunner(t)
	sc := r.cdfScenario()
	var prev float64 = -1
	for _, v := range []float64{0.01, 0.1, 1, 8} {
		res, err := r.emaRunWithV(sc, v)
		if err != nil {
			t.Fatal(err)
		}
		pc := float64(res.PC())
		if pc < prev-1e-9 {
			t.Errorf("PC(V=%v) = %v decreased from %v", v, pc, prev)
		}
		prev = pc
	}
}

func TestRenderFigure(t *testing.T) {
	r := quickRunner(t)
	fig, err := r.Fig4a()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Render(&sb, fig); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Fig. 4a") {
		t.Error("missing figure ID in render")
	}
	if !strings.Contains(out, "Default") || !strings.Contains(out, "RTMA alpha=1.0") {
		t.Errorf("missing series headers:\n%s", out)
	}
}

func TestRenderPairsForCDF(t *testing.T) {
	r := quickRunner(t)
	fig, err := r.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Render(&sb, fig); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "CDF") {
		t.Error("CDF render missing labels")
	}
}

func TestRenderClaims(t *testing.T) {
	claims := []Claim{{
		ID: "x", Statement: "s", PaperThreshold: 0.5, Measured: 0.6, Met: true, Context: "c",
	}}
	var sb strings.Builder
	if err := RenderClaims(&sb, claims); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, ">=50%") || !strings.Contains(out, "60.0%") || !strings.Contains(out, "yes") {
		t.Errorf("claims render wrong:\n%s", out)
	}
}

func TestRendersEmptyFigure(t *testing.T) {
	var sb strings.Builder
	if err := Render(&sb, &Figure{ID: "Fig. X", Title: "empty"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no series") {
		t.Error("empty figure not handled")
	}
}

func TestAllRunsEveryFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure suite in -short mode")
	}
	r := quickRunner(t)
	figs, err := r.AllParallel(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 13 {
		t.Fatalf("got %d figures, want 13", len(figs))
	}
	seen := map[string]bool{}
	for _, f := range figs {
		if seen[f.ID] {
			t.Errorf("duplicate figure %s", f.ID)
		}
		seen[f.ID] = true
	}
}

// TestPlainRunsRecordTotalsOnly: a sweep keeps series only where a figure
// reads them. Its three recording runs — Default, RTMA and EMA at the CDF
// scenario, behind Figs. 2, 3, 6 and 7 — hold the per-slot and per-user
// series of every slot they ran; every other run holds totals alone.
func TestPlainRunsRecordTotalsOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure suite in -short mode")
	}
	r := quickRunner(t)
	if _, err := r.AllParallel(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	recording := 0
	for key, res := range r.results.snapshot() {
		if strings.HasSuffix(key, "|cdf=true") {
			recording++
			if len(res.PerSlot) != res.Slots || len(res.RebufferSamples) != len(res.Users) || len(res.EnergySamples) != len(res.Users) {
				t.Errorf("%s: recording run kept %d of %d slots and %d/%d of %d users' samples",
					key, len(res.PerSlot), res.Slots, len(res.RebufferSamples), len(res.EnergySamples), len(res.Users))
			}
		} else if res.PerSlot != nil || res.RebufferSamples != nil || res.EnergySamples != nil {
			t.Errorf("%s: plain run kept a series (%d per-slot rows)", key, len(res.PerSlot))
		}
	}
	if recording != 3 {
		t.Errorf("%d recording runs, want 3", recording)
	}
}

func TestRunnerDeterministic(t *testing.T) {
	a := quickRunner(t)
	b := quickRunner(t)
	fa, err := a.Fig4a()
	if err != nil {
		t.Fatal(err)
	}
	fb, err := b.Fig4a()
	if err != nil {
		t.Fatal(err)
	}
	for i := range fa.Series {
		for j := range fa.Series[i].Y {
			if fa.Series[i].Y[j] != fb.Series[i].Y[j] {
				t.Fatalf("non-deterministic figure: %s series %d point %d", fa.ID, i, j)
			}
		}
	}
}

func TestAllParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel suite in -short mode")
	}
	seq := quickRunner(t)
	par := quickRunner(t)
	want, err := seq.AllParallel(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := par.AllParallel(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d figures, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Fatalf("figure order differs at %d: %s vs %s", i, got[i].ID, want[i].ID)
		}
		if len(got[i].Series) != len(want[i].Series) {
			t.Fatalf("%s: series count differs", got[i].ID)
		}
		for si := range want[i].Series {
			for pi := range want[i].Series[si].Y {
				if got[i].Series[si].Y[pi] != want[i].Series[si].Y[pi] {
					t.Fatalf("%s/%s point %d differs: %v vs %v",
						got[i].ID, got[i].Series[si].Label, pi,
						got[i].Series[si].Y[pi], want[i].Series[si].Y[pi])
				}
			}
		}
	}
}

func TestSingleflightCoalesces(t *testing.T) {
	r := quickRunner(t)
	// Hammer the same run from many goroutines; the cache must end with
	// exactly one entry for it.
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.defaultRun(r.cdfScenario()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := r.cacheSize(); got != 1 {
		t.Errorf("cache has %d entries, want 1", got)
	}
}

// TestWorkloadCacheShares asserts every run over one scenario reuses a
// single generated workload: one miss per distinct (users, avgSize)
// pair, hits for everything else, and pointer-identical sessions.
func TestWorkloadCacheShares(t *testing.T) {
	r := quickRunner(t)
	sc := r.cdfScenario()
	a, err := r.workloadFor(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.workloadFor(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same scenario returned distinct workloads")
	}
	// The CDF-recording variant shares the non-CDF workload too.
	c, err := r.workloadFor(scenario{users: sc.users, avgSizeMB: sc.avgSizeMB, recordCDF: true})
	if err != nil {
		t.Fatal(err)
	}
	if a != c {
		t.Error("CDF scenario did not reuse the workload")
	}
	if hits, misses := r.WorkloadCacheStats(); misses != 1 || hits != 2 {
		t.Errorf("stats hits=%d misses=%d, want 2/1", hits, misses)
	}
	if a.link == nil {
		t.Fatal("quick scenario should compile a link table")
	}
	if a.link.Users() != sc.users {
		t.Errorf("link table users %d, want %d", a.link.Users(), sc.users)
	}
}

// TestWorkloadCacheMissPerScenario runs a figure that spans several
// scenarios and checks misses equal the distinct scenario count.
func TestWorkloadCacheMissPerScenario(t *testing.T) {
	r := quickRunner(t)
	if _, err := r.Fig4a(); err != nil {
		t.Fatal(err)
	}
	hits, misses := r.WorkloadCacheStats()
	if want := int64(len(r.opts.UserCounts)); misses != want {
		t.Errorf("misses %d, want one per user-count scenario (%d)", misses, want)
	}
	if hits == 0 {
		t.Error("no workload cache hits across a multi-scheduler figure")
	}
}

// TestSweepFillsOnlyReachedBlocks pins the link-table work of the seed-42
// quick sweep, per scenario: the slots filled are exactly the scenario's
// longest run — its last slot plus the one after it, which the final fused
// pass attaches — rounded up to a 256-slot table block, plus the block
// filled ahead of it, capped at the horizon. A change to these numbers is a
// change to what the sweep computes, not noise.
func TestSweepFillsOnlyReachedBlocks(t *testing.T) {
	const block = 256 // cell's table block span
	r := quickRunner(t)
	if _, err := r.AllParallel(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"n=4|mb=15": 512, "n=8|mb=10": 2000, "n=8|mb=15": 2000, "n=8|mb=20": 2000}
	horizon := r.opts.Cell.MaxSlots
	var filled, rows int64
	results, workloads := r.results.snapshot(), r.workloads.snapshot()
	for key, sw := range workloads {
		longest := 0
		for runKey, res := range results {
			if strings.Contains(runKey, "|"+key+"|") {
				longest = max(longest, res.Slots)
			}
		}
		got := sw.link.FilledSlots()
		if reached := min(horizon, ((longest+1+block-1)/block+1)*block); got != reached {
			t.Errorf("%s: %d slots filled, longest run %d reaches %d with the block ahead", key, got, longest, reached)
		}
		if got != want[key] {
			t.Errorf("%s: %d slots filled, pinned %d", key, got, want[key])
		}
		filled += int64(sw.link.Users() * got)
		rows += int64(sw.link.Users() * horizon)
	}
	if len(workloads) != len(want) {
		t.Errorf("%d scenarios, pinned %d", len(workloads), len(want))
	}
	if f, h := r.LinkFillStats(); f != filled || h != rows {
		t.Errorf("LinkFillStats = (%d, %d), per-scenario sums (%d, %d)", f, h, filled, rows)
	}
}

// TestWorkloadSharedWithoutLinkTable hammers one table-disabled scenario
// from concurrent simulators. buildWorkload must fully prewarm the
// sessions before publishing even when CompileLink is skipped (over-cap
// or disabled runs), otherwise the simulators' Prewarm calls grow the
// shared stochastic memos concurrently — a data race this test exposes
// under CI's -race job — and here every goroutine must also produce a
// byte-identical Result.
func TestWorkloadSharedWithoutLinkTable(t *testing.T) {
	opts := QuickOptions()
	opts.Cell.LinkTableMaxRows = -1 // skip link compilation entirely
	// A long horizon widens the prewarm race window: if the published
	// sessions are not already warm, every simulator below has tens of
	// thousands of memo entries left to grow concurrently.
	opts.Cell.MaxSlots = 60000
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	sc := r.cdfScenario()
	sw, err := r.workloadFor(sc)
	if err != nil {
		t.Fatal(err)
	}
	if sw.link != nil {
		t.Fatal("table-disabled scenario compiled a link table")
	}
	const runs = 8
	results := make([]*cell.Result, runs)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for k := 0; k < runs; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			<-start // all goroutines hit cell.New's Prewarm together
			res, err := r.simulate(sc, schedBuilder{key: "default", build: func() (sched.Scheduler, error) {
				return sched.NewDefault(), nil
			}})
			if err != nil {
				t.Error(err)
				return
			}
			results[k] = res
		}(k)
	}
	close(start)
	wg.Wait()
	for k := 1; k < runs; k++ {
		if !reflect.DeepEqual(results[0], results[k]) {
			t.Fatalf("concurrent run %d diverged from run 0", k)
		}
	}
}

// TestWorkloadCacheBitwiseNeutral regenerates a figure with the link
// table disabled and a cold workload per run (fresh runner each time)
// and requires byte-identical output: caching and flattening are pure
// plumbing, never physics.
func TestWorkloadCacheBitwiseNeutral(t *testing.T) {
	withTable := quickRunner(t)
	figA, err := withTable.Fig4a()
	if err != nil {
		t.Fatal(err)
	}
	opts := QuickOptions()
	opts.Cell.LinkTableMaxRows = -1 // interface path in every simulator
	withoutTable, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	figB, err := withoutTable.Fig4a()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(figA, figB) {
		t.Error("figure differs between link-table and analytic runs")
	}
	if a, _ := withTable.WorkloadCacheStats(); a == 0 {
		t.Error("link-table runner recorded no cache hits")
	}
}
