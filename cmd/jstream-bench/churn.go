package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"

	"jointstream/internal/cell"
	"jointstream/internal/rng"
	"jointstream/internal/sched"
	"jointstream/internal/signal"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// This file implements the churn benchmark mode: -churn drives an
// unbounded open-system engine at steady per-slot churn (depart oldest,
// admit fresh, advance) across many tile-window rollovers and writes a
// JSON report (results/BENCH_churn.json is the checked-in baseline).
// Beyond the ns/slot throughput the report splits per-slot times into
// rollover slots and steady slots, recording the medians, the rollover p99
// and the rollover/steady median ratio the ISSUE-10 acceptance bound
// (≤ 2×) is stated against. A slot's time is the whole cycle — depart,
// admit, advance — so that whatever the table operations pay for the
// window pipeline is in it, wherever the engine does the work. The engine
// fuses commit(n) with prepare(n+1), so a window is attached (its
// background fill finished and swapped in, or filled on the spot) while the
// *last* slot of the previous window ticks: rollover slots are those with
// (n+1) % tile == 0.

// churnEntry is one measured (sessions, workers) configuration.
type churnEntry struct {
	Sessions  int     `json:"sessions"`
	Arm       string  `json:"arm"`     // "serial" (workers=1) or "parallel" (workers=GOMAXPROCS)
	Workers   int     `json:"workers"` // resolved count actually used
	TileSlots int     `json:"tile_slots"`
	Slots     int     `json:"slots"` // measured slots per rep
	NsPerSlot float64 `json:"ns_per_slot"`
	// SteadyMedianNs and RolloverMedianNs are the per-slot cycle medians of
	// the two slot classes; RolloverX is their ratio (the spike factor a
	// synchronous rollover recompile would inflate).
	SteadyMedianNs   float64 `json:"steady_median_ns"`
	RolloverMedianNs float64 `json:"rollover_median_ns"`
	RolloverP99Ns    float64 `json:"rollover_p99_ns"`
	RolloverX        float64 `json:"rollover_x"`
}

// churnReport is the JSON document -churn writes.
type churnReport struct {
	Commit     string       `json:"commit"`
	CPU        string       `json:"cpu"`
	Cores      int          `json:"cores"`
	GoMaxProcs int          `json:"gomaxprocs"`
	GoVersion  string       `json:"go_version"`
	Scheduler  string       `json:"scheduler"`
	Reps       int          `json:"reps"`
	Entries    []churnEntry `json:"entries"`
}

// churnSlotsFor keeps every tier at the same wall-ish budget: at least
// 8 tile windows, capped so the 10k tier stays in seconds.
func churnSlotsFor(tile, override int) int {
	if override > 0 {
		return override
	}
	return 8 * tile
}

// measureChurnOnce runs one churn configuration and returns its entry.
// The engine is torn down inside so reps don't accumulate goroutines.
func measureChurnOnce(n, tile, slots, workers int) (churnEntry, error) {
	e := churnEntry{Sessions: n, Workers: workers, TileSlots: tile, Slots: slots}
	cfg := cell.PaperConfig()
	cfg.RunFullHorizon = true
	cfg.Workers = workers
	src := rng.New(7)
	mk := func(id int) *workload.Session {
		return &workload.Session{
			ID:       id,
			Size:     1 << 30, // never completes; churn is depart-driven
			BaseRate: units.KBps(src.Uniform(300, 600)),
			Signal:   signal.Constant(units.DBm(src.Uniform(-95, -55)), signal.DefaultBounds),
		}
	}
	initial := make([]*workload.Session, n)
	for i := range initial {
		initial[i] = mk(i)
	}
	o, err := cell.NewOpen(cell.OpenConfig{
		Cell: cfg, Unbounded: true, MaxSessions: n,
		TileSlots: tile, WindowSlots: 2 * tile, Windows: 2,
	}, initial, sched.NewDefault())
	if err != nil {
		return e, err
	}
	defer o.Stop()
	if err := o.Start(context.Background()); err != nil {
		return e, err
	}
	type live struct {
		idx int
		ser uint64
	}
	fifo := make([]live, 0, n+1)
	for i := 0; i < n; i++ {
		ser, ok := o.Serial(i)
		if !ok {
			return e, fmt.Errorf("churn: no serial for initial session %d", i)
		}
		fifo = append(fifo, live{i, ser})
	}
	tmpl := mk(0)
	var roll, steady []float64
	warmup := 2 * tile
	total := 0.0
	for slot := 0; slot < warmup+slots; slot++ {
		old := fifo[0]
		fifo = fifo[:copy(fifo, fifo[1:])]
		start := time.Now()
		if ok, err := o.DepartSerial(old.idx, old.ser); err != nil || !ok {
			return e, fmt.Errorf("churn: depart idx=%d ser=%d: ok=%v err=%v", old.idx, old.ser, ok, err)
		}
		idx, err := o.Admit(tmpl)
		if err != nil {
			return e, err
		}
		ser, _ := o.Serial(idx)
		fifo = append(fifo, live{idx, ser})
		if _, err := o.AdvanceTo(slot + 1); err != nil {
			return e, err
		}
		d := float64(time.Since(start).Nanoseconds())
		if slot < warmup {
			continue
		}
		total += d
		if (slot+1)%tile == 0 {
			roll = append(roll, d)
		} else {
			steady = append(steady, d)
		}
	}
	e.NsPerSlot = total / float64(slots)
	e.SteadyMedianNs = quantileOf(steady, 0.5)
	e.RolloverMedianNs = quantileOf(roll, 0.5)
	e.RolloverP99Ns = quantileOf(roll, 0.99)
	if e.SteadyMedianNs > 0 {
		e.RolloverX = e.RolloverMedianNs / e.SteadyMedianNs
	}
	return e, nil
}

// quantileOf returns the q-th empirical quantile of xs without mutating it.
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q * float64(len(s)-1))
	return s[i]
}

// measureChurn runs every tier × arm, keeping the best rep by ns/slot
// (the rollover stats follow the kept rep so the ratio stays coherent).
func measureChurn(tiers []int, tile, slotOverride, reps int) (*churnReport, error) {
	rep := &churnReport{
		Commit:     gitCommit(),
		CPU:        cpuModel(),
		Cores:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Scheduler:  "Default",
		Reps:       reps,
	}
	slots := churnSlotsFor(tile, slotOverride)
	for _, n := range tiers {
		for _, arm := range []struct {
			name    string
			workers int
		}{{"serial", 1}, {"parallel", runtime.GOMAXPROCS(0)}} {
			var best churnEntry
			for r := 0; r < reps; r++ {
				e, err := measureChurnOnce(n, tile, slots, arm.workers)
				if err != nil {
					return nil, err
				}
				if r == 0 || e.NsPerSlot < best.NsPerSlot {
					best = e
				}
			}
			best.Arm = arm.name
			rep.Entries = append(rep.Entries, best)
		}
	}
	return rep, nil
}

// gitCommit is the checked-out commit, "+dirty" appended when the working
// tree differs from it, "unknown" outside a repository.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		commit += "+dirty"
	}
	return commit
}

// cpuModel is the "model name" of /proc/cpuinfo, GOARCH where there is none.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// runChurn measures and writes the report, echoing a table to stdout.
func runChurn(outPath, tiersCSV string, tile, slotOverride, reps int) error {
	tiers, err := parseTickUsers(tiersCSV)
	if err != nil {
		return err
	}
	rep, err := measureChurn(tiers, tile, slotOverride, reps)
	if err != nil {
		return err
	}
	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	fmt.Printf("churn benchmark (commit %.12s, %s, %d cores, GOMAXPROCS=%d, best of %d):\n",
		rep.Commit, rep.CPU, rep.Cores, rep.GoMaxProcs, rep.Reps)
	for _, e := range rep.Entries {
		fmt.Printf("  N=%-7d %-8s workers=%-2d tile=%-3d slots=%-4d %12.0f ns/slot  rollover %.2fx (p99 %.0f ns)\n",
			e.Sessions, e.Arm, e.Workers, e.TileSlots, e.Slots, e.NsPerSlot, e.RolloverX, e.RolloverP99Ns)
	}
	fmt.Printf("report written to %s\n", outPath)
	return nil
}
