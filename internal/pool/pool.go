// Package pool provides a small, dependency-free worker pool for fanning
// independent jobs across CPUs: parameter sweeps in the experiment
// harness, per-cell simulations in multi-cell deployments, and multi-seed
// robustness runs. Results preserve submission order, errors cancel the
// remaining work, and panics in workers are converted to errors instead of
// crashing the process.
//
// Every fan-out granted an extra worker — Shard, ForEachN, Map — runs one
// claim loop: one goroutine spawn per extra worker, one atomic add per run
// of jobs (a run is one job, except under Shard).
package pool

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

var errNilFunc = errors.New("pool: nil function")

// claim runs fn(i) for i in [0, n) on the calling goroutine plus extra
// more, each claiming the next run of consecutive indices from one
// counter, until the indices run out, done is closed (polled without
// blocking, so without a lock, before every claim; a nil done never is),
// or a job panics. It returns once every goroutine has finished, with the
// first panic and the job that raised it (job < 0 when none did).
func claim(extra, n, run int, done <-chan struct{}, fn func(i int)) (job int, panicked any) {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		mu   sync.Mutex
	)
	job = -1
	work := func() {
		i := -1
		defer func() {
			if p := recover(); p != nil {
				next.Store(int64(n)) // every later claim finds the indices spent
				mu.Lock()
				if job < 0 {
					job, panicked = i, p
				}
				mu.Unlock()
			}
		}()
		for {
			select {
			case <-done:
				return
			default:
			}
			lo := int(next.Add(int64(run))) - run
			if lo >= n {
				return
			}
			for i = lo; i < min(lo+run, n); i++ {
				fn(i)
			}
		}
	}
	wg.Add(extra)
	for w := 0; w < extra; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work() // the caller is a worker too
	wg.Wait()
	return job, panicked
}

// Map runs fn over every item of xs using at most workers goroutines and
// returns the results in input order. The first error (or worker panic)
// cancels the remaining jobs via the context passed to fn; already-running
// jobs finish. workers <= 0 selects the free worker budget (GOMAXPROCS
// by default).
//
// Map participates in the process-wide worker budget (budget.go): an
// explicit workers > 0 is honored exactly — callers ask for more than
// GOMAXPROCS when jobs block rather than burn CPU — and debited, which
// starves nested elastic fan-outs into running inline; workers <= 0 takes
// however many workers the budget has free. Either way results are
// collected in input order, so the granted count never changes the output.
func Map[T, R any](ctx context.Context, workers int, xs []T, fn func(context.Context, T) (R, error)) ([]R, error) {
	if fn == nil {
		return nil, errNilFunc
	}
	if len(xs) == 0 {
		return nil, nil
	}
	results := make([]R, len(xs))
	err := ForEachN(ctx, workers, len(xs), func(ctx context.Context, i int) (err error) {
		results[i], err = fn(ctx, xs[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// ForEachN runs fn over the index range [0, n) with Map's scheduling,
// budget and error semantics, but without materializing an input slice
// or a result slice. It exists for hot repeated fan-outs — the fleet
// runner's per-epoch tick over hundreds of cells calls this once per
// epoch, and allocating an index slice plus a discarded result slice
// each time would be pure garbage-collector load. With no extra worker
// granted the jobs run inline, in index order, under ctx itself: there is
// no other worker for an error to stop.
func ForEachN(ctx context.Context, workers, n int, fn func(context.Context, int) error) error {
	if fn == nil {
		return errNilFunc
	}
	if n <= 0 {
		return nil
	}
	var extra int
	if workers <= 0 {
		extra = acquireExtra(n - 1) // the budget itself caps the take
	} else {
		extra = min(workers, n) - 1
		debitExtra(extra)
	}
	defer releaseExtra(extra)
	if extra == 0 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			if err := runJob(ctx, i, fn); err != nil {
				return err
			}
		}
		return ctx.Err()
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu       sync.Mutex
		firstErr error
	)
	claim(extra, n, 1, ctx.Done(), func(i int) {
		if err := runJob(ctx, i, fn); err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
				cancel()
			}
			mu.Unlock()
		}
	})
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// runJob runs fn(ctx, i), its error or panic reported with the job index.
func runJob(ctx context.Context, i int, fn func(context.Context, int) error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("pool: job %d panicked: %v", i, p)
		}
	}()
	if err := fn(ctx, i); err != nil {
		return fmt.Errorf("pool: job %d: %w", i, err)
	}
	return nil
}
