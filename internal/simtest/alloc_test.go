//go:build !race

// Steady-state allocation regression tests for the zero-copy tick loop.
// The race detector instruments allocations and would report nonsense
// counts, so the file is excluded from -race runs; the plain CI test job
// executes it.

package simtest

import (
	"context"
	"testing"

	"jointstream/internal/cell"
	"jointstream/internal/sched"
	"jointstream/internal/signal"
	"jointstream/internal/workload"
)

const (
	allocUsers      = 10000
	allocShortSlots = 24
	allocLongSlots  = 56
	allocRuns       = 2
)

// recordLevels are the recording levels the zero-allocation tests hold to
// 0: the default per-slot series and the sweep's totals-only runs.
var recordLevels = []cell.RecordLevel{cell.RecordSlots, cell.RecordTotals}

// allocSims prebuilds one simulator per AllocsPerRun invocation (runs+1,
// counting the warmup call) over a shared workload, so the measured
// closure contains nothing but Run. One-time costs inside Run — result
// buffers, pprof label contexts, shard scratch and scheduler state
// growing on the first slot — are identical between the two horizons and
// cancel in the difference.
func allocSims(t *testing.T, wl []*workload.Session, mk func() sched.Scheduler, maxSlots int, level cell.RecordLevel) []*cell.Simulator {
	t.Helper()
	sims := make([]*cell.Simulator, allocRuns+1)
	for i := range sims {
		cfg := cell.PaperConfig()
		cfg.Capacity = 2000
		cfg.MaxSlots = maxSlots
		cfg.Workers = 1
		cfg.Record = level
		sim, err := cell.New(cfg, wl, mk())
		if err != nil {
			t.Fatal(err)
		}
		sims[i] = sim
	}
	return sims
}

// steadyAllocsPerSlot isolates the tick loop's steady-state allocation
// rate by differencing two horizons: allocations of a 56-slot run minus a
// 24-slot run, divided by the 32 extra slots. Simulator construction
// (link-table compile, trace memoization — both horizon-dependent) stays
// outside the measured closure; the workload is sized so no session can
// finish within the horizon, keeping the live set and shard layout fixed
// across the differenced slots.
func steadyAllocsPerSlot(t *testing.T, mk func() sched.Scheduler, level cell.RecordLevel) float64 {
	wl, err := SmallWorkload(5, allocUsers)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(maxSlots int) float64 {
		sims := allocSims(t, wl, mk, maxSlots, level)
		i := 0
		return testing.AllocsPerRun(allocRuns, func() {
			sim := sims[i]
			i++
			if _, err := sim.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	short := measure(allocShortSlots)
	long := measure(allocLongSlots)
	return (long - short) / float64(allocLongSlots-allocShortSlots)
}

// TestTickSteadyStateZeroAllocs pins the tentpole's zero-allocation
// guarantee: once the first slot has grown every buffer, the prepare →
// schedule → commit loop allocates nothing — for the incremental-sort
// RTMA, the DP-heavy EMA, and the lookahead Predictive (whose factory
// arm reads the interface forecast path) at N=10k, at both recording
// levels.
func TestTickSteadyStateZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-user allocation measurement; skipped in -short")
	}
	for name, mk := range factories(t) {
		if name != "RTMA" && name != "EMA" && name != "Predictive" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			for _, level := range recordLevels {
				if got := steadyAllocsPerSlot(t, mk, level); got != 0 {
					t.Errorf("record level %d: steady-state tick loop allocates %.2f objects/slot, want 0", level, got)
				}
			}
		})
	}
}

// TestTickSteadyStatePredictiveWindowAllocs covers the branch the
// factory arm can't reach: a table-backed forecast, whose every
// prediction is a block lookup in the table and a derivation through
// radio.Link from the signal row. A read must stay allocation-free — zero
// allocations per slot however far the lookahead window reaches, at both
// recording levels.
func TestTickSteadyStatePredictiveWindowAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-user allocation measurement; skipped in -short")
	}
	wl, err := SmallWorkload(5, allocUsers)
	if err != nil {
		t.Fatal(err)
	}
	// Compile once at the longer horizon; the forecast truncates itself
	// at the table edge, so the shorter measurement arm reads a prefix.
	cfg := cell.PaperConfig()
	cfg.Capacity = 2000
	cfg.MaxSlots = allocLongSlots
	cfg.Workers = 1
	lt, err := cell.CompileLink(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() sched.Scheduler {
		p, err := sched.NewPredictive(sched.PredictiveConfig{Lookahead: 6, Forecast: lt.Forecast()})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, level := range recordLevels {
		if got := steadyAllocsPerSlot(t, mk, level); got != 0 {
			t.Errorf("record level %d: steady-state windowed Predictive tick allocates %.2f objects/slot, want 0", level, got)
		}
	}
}

// TestTickSteadyStateTiledZeroAllocs is the same guarantee with the closed
// engine on a sliding link window whose blocks (10 000 users × 4 slots)
// are filled in the background: once the first swaps have grown the spare
// block, the snapshot storage and the fillers' scratch, a stretch of eight
// slots — two window swaps, with their pinned-column copies, snapshots and
// a goroutine per fill — allocates nothing, at both recording levels.
// Stepped, so the measured closure is only ticks of one warm simulator.
func TestTickSteadyStateTiledZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-user allocation measurement; skipped in -short")
	}
	const warmSlots, stretch, runs = 32, 8, 20
	wl, err := SmallWorkload(5, allocUsers)
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range recordLevels {
		cfg := cell.PaperConfig()
		cfg.Capacity = 2000
		cfg.MaxSlots = warmSlots + stretch*(runs+2)
		cfg.Workers = 1
		cfg.LinkTileSlots = 8
		cfg.Record = level
		sim, err := cell.New(cfg, wl, sched.NewDefault())
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		upto := warmSlots
		advance := func() {
			if _, err := sim.Advance(upto); err != nil {
				t.Fatal(err)
			}
			upto += stretch
		}
		advance()
		if got := testing.AllocsPerRun(runs, advance); got != 0 {
			t.Errorf("record level %d: steady-state tiled tick loop allocates %.2f objects per %d slots, want 0", level, got, stretch)
		}
		sim.Finish()
	}
}

// TestTickSteadyStateChurnZeroAllocs extends the zero-allocation
// guarantee to the open-system churn steady state: once the session
// pools, free-list, pending storage, tile blocks and window-metric
// scratch have grown, a sustained admit → serve → depart cycle — tile
// window rollovers, pipelined recompiles and metric-window rotations
// included — allocates nothing per cycle.
func TestTickSteadyStateChurnZeroAllocs(t *testing.T) {
	cfg := cell.PaperConfig()
	cfg.Capacity = 2000
	cfg.MaxSlots = 64 // initial horizon only; extends on demand
	cfg.Workers = 1
	cfg.RunFullHorizon = true
	o, err := cell.NewOpen(cell.OpenConfig{
		Cell: cfg, Unbounded: true, MaxSessions: 48,
		TileSlots: 16,
	}, nil, sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	// One caller-owned template; Admit clones it into pooled storage.
	// The size is unreachable within the run, so occupancy is driven
	// purely by the explicit depart-one/admit-one cycle below.
	template := &workload.Session{
		Size:     1 << 20,
		BaseRate: 300,
		Signal:   signal.Constant(-60, signal.DefaultBounds),
	}
	var sers []uint64
	admit := func() {
		idx, err := o.Admit(template)
		if err != nil {
			t.Fatal(err)
		}
		ser, ok := o.Serial(idx)
		if !ok {
			t.Fatalf("no serial at slot %d", idx)
		}
		sers = append(sers, ser)
	}
	for i := 0; i < 24; i++ {
		admit()
	}
	cycle := func() {
		ok, err := o.DepartSerial(-1, sers[0])
		if err != nil || !ok {
			t.Fatalf("depart oldest: ok=%v err=%v", ok, err)
		}
		sers = append(sers[:0], sers[1:]...)
		admit()
		if _, err := o.AdvanceTo(o.Stats().Slot + 8); err != nil {
			t.Fatal(err)
		}
	}
	// Warm every pool: enough cycles to cross several tile windows and
	// metric-window rotations and to fill the session/free-list pools.
	for i := 0; i < 40; i++ {
		cycle()
	}
	if got := testing.AllocsPerRun(50, cycle); got != 0 {
		t.Errorf("churn steady state allocates %.2f objects/cycle, want 0", got)
	}
}
