package pool

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// TestShardCoversEveryIndexOnce: 1 001 shards are claimed in runs of
// several, the last one short.
func TestShardCoversEveryIndexOnce(t *testing.T) {
	for _, shards := range []int{100, 1001} {
		for _, workers := range []int{0, 1, 2, 4, 16} {
			hits := make([]atomic.Int32, shards)
			Shard(workers, len(hits), func(i int) { hits[i].Add(1) })
			for i := range hits {
				if n := hits[i].Load(); n != 1 {
					t.Fatalf("%d shards, workers=%d: shard %d ran %d times, want 1", shards, workers, i, n)
				}
			}
		}
	}
}

func TestShardZeroShards(t *testing.T) {
	called := false
	Shard(4, 0, func(int) { called = true })
	Shard(4, -3, func(int) { called = true })
	if called {
		t.Error("fn called with no shards")
	}
}

func TestShardSerialRunsInline(t *testing.T) {
	// workers <= 1 must run on the caller's goroutine in ascending order —
	// the simulator's determinism argument depends on it. Unsynchronized
	// writes to `order` would trip the race detector if a goroutine ran fn.
	var order []int
	Shard(1, 5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("inline order = %v, want ascending", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("ran %d shards, want 5", len(order))
	}
}

func TestShardWorkersCappedAtShards(t *testing.T) {
	// More workers than shards must not deadlock or double-run shards.
	var runs atomic.Int32
	Shard(32, 3, func(int) { runs.Add(1) })
	if runs.Load() != 3 {
		t.Errorf("ran %d shards, want 3", runs.Load())
	}
}

func TestShardActuallyParallel(t *testing.T) {
	// Two shards that each wait for the other: sequential execution would
	// time out.
	var entered atomic.Int32
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		Shard(2, 2, func(int) {
			if entered.Add(1) == 2 {
				close(release)
			}
			select {
			case <-release:
			case <-time.After(5 * time.Second):
			}
		})
		close(done)
	}()
	select {
	case <-done:
		if entered.Load() != 2 {
			t.Fatalf("entered = %d", entered.Load())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shard did not run shards concurrently")
	}
}

func TestShardPanicPropagates(t *testing.T) {
	defer func() {
		if p := recover(); p != "shard boom" {
			t.Errorf("recovered %v, want the shard's panic value", p)
		}
	}()
	Shard(4, 8, func(i int) {
		if i == 3 {
			panic("shard boom")
		}
	})
	t.Error("panic not re-raised")
}

// Property: the per-shard partial sums reduced in shard order equal the
// serial sum, for any worker count.
func TestShardPartialSumsProperty(t *testing.T) {
	f := func(xs []int32, workersRaw, shardRaw uint8) bool {
		shards := int(shardRaw%8) + 1
		workers := int(workersRaw % 10)
		partial := make([]int64, shards)
		Shard(workers, shards, func(sh int) {
			lo := sh * len(xs) / shards
			hi := (sh + 1) * len(xs) / shards
			for _, x := range xs[lo:hi] {
				partial[sh] += int64(x)
			}
		})
		var got, want int64
		for _, p := range partial {
			got += p
		}
		for _, x := range xs {
			want += int64(x)
		}
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkShardOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Shard(8, 64, func(int) {})
	}
}

// BenchmarkShardCrossover pins the serial-vs-parallel crossover behind
// the engine's smallNSerialCutoff: each tier sweeps one N with a
// per-user body of a few float ops (comparable to the tick kernels'
// per-user column work, ~256 users per shard) once inline (workers=1)
// and once through the goroutine fan-out. Below the crossover the
// handoff costs more than the work — the "parallel" arm loses or ties —
// so the engine runs those slots serially; the cutoff (2048) sits at
// the low end of where the fan-out starts to amortize on multicore
// boxes (on one core it never does, and the budget collapses both arms
// to the inline loop anyway).
func BenchmarkShardCrossover(b *testing.B) {
	const shardSize = 256
	for _, n := range []int{512, 1024, 2048, 4096, 16384} {
		shards := (n + shardSize - 1) / shardSize
		data := make([]float64, n)
		for i := range data {
			data[i] = float64(i)
		}
		body := func(sh int) {
			lo, hi := sh*n/shards, (sh+1)*n/shards
			acc := 0.0
			for i := lo; i < hi; i++ {
				acc += data[i] * 1.0001
				data[i] = acc * 0.5
			}
		}
		for _, arm := range []struct {
			name    string
			workers int
		}{{"serial", 1}, {"parallel", 0}} {
			workers := arm.workers
			if workers == 0 {
				workers = shards
			}
			b.Run(fmt.Sprintf("N=%d/%s", n, arm.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					Shard(workers, shards, body)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/user")
			})
		}
	}
}

// BenchmarkShardWake measures what a second Shard worker loses before it
// does any work: the time from Shard's entry to the helper goroutine's
// first shard, in µs (wake-µs). Each call has two shards; the caller
// claims shard 0 and spins in it until the helper has claimed shard 1
// (capped at 10 ms), so the helper's start is the only thing timed.
// Between calls the caller runs gap of serial work, as the tick runs its
// schedule phase between the sharded ones, so the helper's P has gone
// idle by the next call, as it has in a tick. Needs two procs.
func BenchmarkShardWake(b *testing.B) {
	if runtime.GOMAXPROCS(0) < 2 {
		b.Skip("needs GOMAXPROCS ≥ 2")
	}
	spin := func(d time.Duration) {
		for t := time.Now(); time.Since(t) < d; {
		}
	}
	for _, gap := range []time.Duration{0, 50 * time.Microsecond, 500 * time.Microsecond} {
		b.Run(fmt.Sprintf("gap=%v", gap), func(b *testing.B) {
			var entry time.Time
			var woke atomic.Int64 // ns after entry the helper took shard 1; 0 = not yet
			var total time.Duration
			body := func(sh int) {
				if sh == 1 {
					woke.Store(int64(max(time.Since(entry), 1)))
					return
				}
				for t := time.Now(); woke.Load() == 0 && time.Since(t) < 10*time.Millisecond; {
				}
			}
			for i := 0; i < b.N; i++ {
				spin(gap)
				woke.Store(0)
				entry = time.Now()
				Shard(2, 2, body)
				total += time.Duration(woke.Load())
			}
			b.ReportMetric(float64(total.Microseconds())/float64(b.N), "wake-µs")
		})
	}
}
