package pool

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// withBudget runs f under a temporary worker budget and restores the
// previous budget afterwards (tests must not leak tokens into each
// other — the budget is process-global).
func withBudget(t *testing.T, n int, f func()) {
	t.Helper()
	prev := SetWorkerBudget(n)
	defer SetWorkerBudget(prev)
	f()
}

// highWater tracks the peak number of concurrently running fn bodies.
type highWater struct {
	cur, peak atomic.Int64
}

func (h *highWater) enter() {
	c := h.cur.Add(1)
	for {
		p := h.peak.Load()
		if c <= p || h.peak.CompareAndSwap(p, c) {
			return
		}
	}
}

func (h *highWater) exit() { h.cur.Add(-1) }

func TestShardRespectsBudget(t *testing.T) {
	withBudget(t, 3, func() {
		var hw highWater
		const shards = 64
		done := make([]atomic.Int64, shards)
		Shard(16, shards, func(i int) {
			hw.enter()
			time.Sleep(time.Millisecond)
			done[i].Add(1)
			hw.exit()
		})
		if peak := hw.peak.Load(); peak > 3 {
			t.Errorf("peak concurrency %d exceeds budget 3", peak)
		}
		for i := range done {
			if got := done[i].Load(); got != 1 {
				t.Errorf("shard %d ran %d times, want 1", i, got)
			}
		}
	})
}

func TestShardBudgetOneRunsInline(t *testing.T) {
	withBudget(t, 1, func() {
		var hw highWater
		Shard(8, 32, func(int) {
			hw.enter()
			hw.exit()
		})
		if peak := hw.peak.Load(); peak != 1 {
			t.Errorf("peak concurrency %d with budget 1, want 1", peak)
		}
	})
}

func TestElasticMapRespectsBudget(t *testing.T) {
	withBudget(t, 2, func() {
		var hw highWater
		xs := make([]int, 32)
		got, err := Map(context.Background(), 0, xs, func(_ context.Context, x int) (int, error) {
			hw.enter()
			time.Sleep(time.Millisecond)
			hw.exit()
			return x + 1, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(xs) {
			t.Fatalf("got %d results, want %d", len(got), len(xs))
		}
		if peak := hw.peak.Load(); peak > 2 {
			t.Errorf("peak concurrency %d exceeds budget 2", peak)
		}
	})
}

// TestNestedFanoutSharesBudget is the composition case the budget
// exists for: an outer Map sweep whose jobs each run an inner Shard.
// The combined concurrency of inner bodies must stay within the budget
// instead of multiplying outer×inner.
func TestNestedFanoutSharesBudget(t *testing.T) {
	withBudget(t, 4, func() {
		var hw highWater
		xs := make([]int, 8)
		_, err := Map(context.Background(), 0, xs, func(context.Context, int) (struct{}, error) {
			Shard(8, 16, func(int) {
				hw.enter()
				time.Sleep(time.Millisecond)
				hw.exit()
			})
			return struct{}{}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if peak := hw.peak.Load(); peak > 4 {
			t.Errorf("peak inner concurrency %d exceeds budget 4", peak)
		}
	})
}

// TestExplicitMapStarvesInnerShard pins the other half of the contract:
// an explicit Map worker request is honored as asked, debits the whole
// budget, and the Shards running inside its jobs fall back to inline.
func TestExplicitMapStarvesInnerShard(t *testing.T) {
	withBudget(t, 2, func() {
		var worstJobPeak atomic.Int64
		_, err := Map(context.Background(), 6, make([]int, 6), func(_ context.Context, _ int) (struct{}, error) {
			var local highWater
			Shard(8, 16, func(int) {
				local.enter()
				time.Sleep(time.Millisecond)
				local.exit()
			})
			p := local.peak.Load()
			for {
				w := worstJobPeak.Load()
				if p <= w || worstJobPeak.CompareAndSwap(w, p) {
					break
				}
			}
			return struct{}{}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		// With the whole budget debited by the explicit Map, each job's
		// Shard must have run inline (per-job peak 1), even though the
		// jobs themselves overlap.
		if got := worstJobPeak.Load(); got != 1 {
			t.Errorf("inner Shard peak %d under explicit Map, want 1 (inline)", got)
		}
	})
}

// TestBudgetTokensRestored asserts fan-outs return every token they
// took, including on the error and panic paths.
func TestBudgetTokensRestored(t *testing.T) {
	withBudget(t, 5, func() {
		Shard(5, 16, func(int) {})
		if got := WorkerBudget(); got != 5 {
			t.Fatalf("budget %d after Shard, want 5", got)
		}
		func() {
			defer func() { recover() }()
			Shard(5, 16, func(i int) {
				if i == 7 {
					panic("boom")
				}
			})
		}()
		if got := WorkerBudget(); got != 5 {
			t.Fatalf("budget %d after panicking Shard, want 5", got)
		}
		if _, err := Map(context.Background(), 5, make([]int, 8), func(context.Context, int) (int, error) {
			return 0, nil
		}); err != nil {
			t.Fatal(err)
		}
		if got := WorkerBudget(); got != 5 {
			t.Fatalf("budget %d after Map, want 5", got)
		}
		for _, workers := range []int{0, 5} {
			if err := ForEachN(context.Background(), workers, 16, func(_ context.Context, i int) error {
				if i == 7 {
					return errors.New("boom")
				}
				return nil
			}); err == nil {
				t.Fatal("ForEachN swallowed the error")
			}
			if got := WorkerBudget(); got != 5 {
				t.Fatalf("budget %d after failing ForEachN(workers=%d), want 5", got, workers)
			}
			if err := ForEachN(context.Background(), workers, 16, func(_ context.Context, i int) error {
				if i == 7 {
					panic("boom")
				}
				return nil
			}); err == nil {
				t.Fatal("ForEachN swallowed the panic")
			}
			if got := WorkerBudget(); got != 5 {
				t.Fatalf("budget %d after panicking ForEachN(workers=%d), want 5", got, workers)
			}
		}
	})
}

func TestSetWorkerBudgetReturnsPrevious(t *testing.T) {
	prev := SetWorkerBudget(7)
	if got := SetWorkerBudget(prev); got != 7 {
		t.Errorf("SetWorkerBudget returned %d, want 7", got)
	}
	if got := WorkerBudget(); got != prev {
		t.Errorf("budget %d after restore, want %d", got, prev)
	}
	if def := SetWorkerBudget(0); def != prev {
		t.Errorf("reset returned %d, want %d", def, prev)
	}
	if got := WorkerBudget(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("budget %d after reset, want GOMAXPROCS=%d", got, runtime.GOMAXPROCS(0))
	}
}
