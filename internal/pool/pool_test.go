package pool

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestMapPreservesOrder(t *testing.T) {
	xs := make([]int, 100)
	for i := range xs {
		xs[i] = i
	}
	got, err := Map(context.Background(), 8, xs, func(_ context.Context, x int) (int, error) {
		return x * x, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("got[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapEmptyInput(t *testing.T) {
	got, err := Map(context.Background(), 4, nil, func(_ context.Context, x int) (int, error) {
		return x, nil
	})
	if err != nil || got != nil {
		t.Errorf("empty input: %v, %v", got, err)
	}
}

func TestMapNilFunction(t *testing.T) {
	if _, err := Map[int, int](context.Background(), 1, []int{1}, nil); err == nil {
		t.Error("nil fn accepted")
	}
}

func TestMapDefaultWorkers(t *testing.T) {
	got, err := Map(context.Background(), 0, []int{1, 2, 3}, func(_ context.Context, x int) (int, error) {
		return x + 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[2] != 4 {
		t.Errorf("got = %v", got)
	}
}

func TestMapActuallyParallel(t *testing.T) {
	// With 4 workers, 4 jobs that each wait for the others must finish:
	// sequential execution would deadlock (and the test would time out).
	var entered atomic.Int32
	release := make(chan struct{})
	xs := []int{0, 1, 2, 3}
	done := make(chan error, 1)
	go func() {
		_, err := Map(context.Background(), 4, xs, func(_ context.Context, x int) (int, error) {
			if entered.Add(1) == 4 {
				close(release)
			}
			select {
			case <-release:
				return x, nil
			case <-time.After(5 * time.Second):
				return 0, errors.New("parallelism timeout")
			}
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Map did not run jobs concurrently")
	}
}

func TestMapErrorCancelsRemaining(t *testing.T) {
	const workers = 2
	var ran atomic.Int32
	xs := make([]int, 1000)
	boom := errors.New("boom")
	_, err := Map(context.Background(), workers, xs, func(ctx context.Context, x int) (int, error) {
		n := ran.Add(1)
		if n == 3 {
			return 0, boom
		}
		if n > 3 {
			// Every later job waits for the cancellation, so how many ran
			// is bounded by the workers and not by how long the failing
			// job's goroutine sat descheduled before it could cancel.
			select {
			case <-ctx.Done():
			case <-time.After(30 * time.Second):
				t.Error("job still running 30 s after another failed: context never cancelled")
			}
		}
		return 0, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	// Every worker checks the context before it claims a job: the three
	// jobs up to the failure, plus at most one more per worker that
	// claimed before the cancellation landed.
	if ran.Load() > 3+workers {
		t.Errorf("%d jobs started, want at most %d: cancellation ineffective", ran.Load(), 3+workers)
	}
}

func TestMapPanicBecomesError(t *testing.T) {
	_, err := Map(context.Background(), 2, []int{1, 2, 3}, func(_ context.Context, x int) (int, error) {
		if x == 2 {
			panic("kaboom")
		}
		return x, nil
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("panic not surfaced: %v", err)
	}
}

func TestMapRespectsCallerCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Map(ctx, 2, []int{1, 2, 3}, func(ctx context.Context, x int) (int, error) {
		return x, nil
	})
	if err == nil {
		t.Error("pre-cancelled context accepted")
	}
}

// Property: Map equals the sequential loop for pure functions, at any
// worker count.
func TestMapMatchesSequentialProperty(t *testing.T) {
	f := func(xs []int32, workersRaw uint8) bool {
		workers := int(workersRaw%8) + 1
		fn := func(x int32) int64 { return int64(x)*3 - 7 }
		got, err := Map(context.Background(), workers, xs, func(_ context.Context, x int32) (int64, error) {
			return fn(x), nil
		})
		if err != nil {
			return false
		}
		for i, x := range xs {
			if got[i] != fn(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkMapOverhead(b *testing.B) {
	xs := make([]int, 64)
	for i := 0; i < b.N; i++ {
		_, err := Map(context.Background(), 8, xs, func(_ context.Context, x int) (int, error) {
			return x + 1, nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForEachNDispatch is the dispatch cost of one ForEachN fan-out
// of 391 empty jobs (the shard count of a 100 000-user tick) on every
// core the budget grants — the shape of pool.foreach_dispatch_us.
func BenchmarkForEachNDispatch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := ForEachN(context.Background(), 0, 391, func(context.Context, int) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleMap() {
	squares, _ := Map(context.Background(), 4, []int{1, 2, 3, 4}, func(_ context.Context, x int) (int, error) {
		return x * x, nil
	})
	fmt.Println(squares)
	// Output: [1 4 9 16]
}

func TestForEachNCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 4, 0} {
		const n = 200
		var hits [n]int32
		err := ForEachN(context.Background(), workers, n, func(_ context.Context, i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
}

func TestForEachNErrorAndPanic(t *testing.T) {
	sentinel := errors.New("boom")
	err := ForEachN(context.Background(), 2, 50, func(_ context.Context, i int) error {
		if i == 7 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("error not propagated: %v", err)
	}
	err = ForEachN(context.Background(), 1, 10, func(_ context.Context, i int) error {
		if i == 3 {
			panic("kaput")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panic not converted: %v", err)
	}
	if err := ForEachN(context.Background(), 1, 5, nil); err == nil {
		t.Fatal("nil fn accepted")
	}
	if err := ForEachN(context.Background(), 1, 0, func(_ context.Context, _ int) error {
		t.Fatal("fn called for n=0")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestForEachNRespectsCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran int32
	err := ForEachN(ctx, 1, 100, func(_ context.Context, _ int) error {
		atomic.AddInt32(&ran, 1)
		return nil
	})
	if err == nil {
		t.Fatal("cancelled context accepted")
	}
	if ran != 0 {
		t.Fatalf("ran %d jobs after cancellation", ran)
	}
}
