package cell

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"jointstream/internal/rng"
	"jointstream/internal/sched"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// TestShardAccumLayout pins the shard accumulators' padding: neighbouring
// shards' slotAccums, written by different workers in the same slot, must
// never share a cache line, whatever the slice's alignment. The data of
// one element and of the next are at least a line apart when the bytes
// between them (the pad) number cacheLine−1 or more; the layout of a real
// run's scratch is checked the same way, address by address.
func TestShardAccumLayout(t *testing.T) {
	typ := reflect.TypeOf(slotAccum{})
	first, end := typ.Size(), uintptr(0)
	for k := 0; k < typ.NumField(); k++ {
		f := typ.Field(k)
		if f.Name == "_" {
			continue
		}
		first = min(first, f.Offset)
		end = max(end, f.Offset+f.Type.Size())
	}
	const cacheLine = 64
	if gap := typ.Size() - (end - first); gap < cacheLine-1 {
		t.Fatalf("slotAccum holds %d data bytes in %d: %d bytes apart, two shards' accumulators can share a %d-byte line",
			end-first, typ.Size(), gap, cacheLine)
	}

	cfg := PaperConfig()
	cfg.MaxSlots = 4
	cfg.ShardSize = 8
	wl, err := workload.Generate(workload.PaperDefaults(40), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(cfg, wl, sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sim.shardAcc) < 2 {
		t.Fatalf("%d shard accumulators, want several", len(sim.shardAcc))
	}
	for sh := 0; sh+1 < len(sim.shardAcc); sh++ {
		last := uintptr(unsafe.Pointer(&sim.shardAcc[sh])) + end - 1
		next := uintptr(unsafe.Pointer(&sim.shardAcc[sh+1])) + first
		if last/cacheLine == next/cacheLine {
			t.Errorf("shards %d and %d: accumulators share the line at %#x", sh, sh+1, last/cacheLine*cacheLine)
		}
	}
}

// BenchmarkTickDense times the closed engine's tick alone on a 100 000-user
// cell (Default scheduler, a 64-slot link tile, 128 slots: one window
// crossing) with one worker and with every core, in ns per user-slot.
// Building the cell is outside the timer; the sessions are generated and
// prewarmed once.
func BenchmarkTickDense(b *testing.B) {
	const users, slots = 100_000, 128
	wl, err := workload.Generate(workload.PaperDefaults(users), rng.New(42))
	if err != nil {
		b.Fatal(err)
	}
	workload.PrewarmAll(0, wl, slots)
	cfg := PaperConfig()
	cfg.Capacity = units.KBps(users * 450 / 0.9) // Σ mean required rate ÷ 0.9
	cfg.MaxSlots = slots
	cfg.RunFullHorizon = true
	cfg.LinkTileSlots = 64
	for _, workers := range []int{1, 0} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := cfg
			cfg.Workers = workers
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sim, err := New(cfg, wl, sched.NewDefault())
				if err == nil {
					err = sim.Start(context.Background())
				}
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := sim.Advance(slots); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				sim.Finish()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*slots*users), "ns/user-slot")
		})
	}
}

// denseCell is cell_dense's shape: 100 000 paper users over 256 slots
// with a 64-slot tile, at 0.9 load, their traces prewarmed.
func denseCell(tb testing.TB) (Config, []*workload.Session) {
	tb.Helper()
	const users, slots = 100_000, 256
	wl, err := workload.Generate(workload.PaperDefaults(users), rng.New(42))
	if err != nil {
		tb.Fatal(err)
	}
	workload.PrewarmAll(0, wl, slots)
	cfg := PaperConfig()
	cfg.Capacity = units.KBps(users * 450 / 0.9) // Σ mean required rate ÷ 0.9
	cfg.MaxSlots = slots
	cfg.RunFullHorizon = true
	cfg.LinkTileSlots = 64
	return cfg, wl
}

// TestNewAllocatesNoLinkStorage: New at cell_dense's shape allocates no
// link block and no copy of the sessions — the window borrows its blocks
// when it first fills and its background fills read the rows in place —
// so it allocates at most 22 MiB, where two blocks and a snapshot up front
// made 79.6.
func TestNewAllocatesNoLinkStorage(t *testing.T) {
	if testing.Short() {
		t.Skip("100 000-user cell; skipped in -short")
	}
	cfg, wl := denseCell(t)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sim, err := New(cfg, wl, sched.NewDefault())
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if mib := float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20); mib > 22 {
		t.Errorf("New allocates %.1f MiB, want ≤ 22", mib)
	}
	if sim.win.cur.sig != nil || sim.win.next.sig != nil {
		t.Error("the window holds a block before its first fill")
	}
}

// BenchmarkNewDense times New at cell_dense's shape, the engine's share of
// its setup_s: ns/user, and B/op under -benchmem.
func BenchmarkNewDense(b *testing.B) {
	cfg, wl := denseCell(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(cfg, wl, sched.NewDefault()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(wl)), "ns/user")
}
