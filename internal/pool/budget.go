package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The worker budget is a process-global token pool that keeps nested
// fan-outs from oversubscribing the machine: the experiment harness runs
// figures in parallel with Map while every simulator inside a figure
// shards its tick phases with Shard, and without a shared budget a
// machine with P cores could end up with figures×shards runnable
// goroutines thrashing the scheduler. Each fan-out counts its calling
// goroutine as one worker for free and settles the rest with the
// budget, never blocking: elastic requests (Shard, workers<=0 Map)
// take whatever is available and run inline when nothing is, while an
// explicit Map worker count is honored as asked and debited — possibly
// into the negative — so elastic fan-outs beneath it yield. Tokens are
// returned when the call completes.
//
// The budget only ever changes how many goroutines execute a fan-out,
// never what it computes: Map preserves submission order, Shard requires
// shard-confined writes, and the simulator's results are byte-identical
// for any worker count, so throttling is invisible in the output.

var (
	budgetOnce  sync.Once
	extraTokens atomic.Int64 // workers available beyond the callers' own goroutines
)

func ensureBudget() {
	budgetOnce.Do(func() {
		extraTokens.Store(int64(runtime.GOMAXPROCS(0) - 1))
	})
}

// acquireExtra takes up to want extra worker tokens from the budget,
// returning how many it got (possibly 0). Never blocks.
func acquireExtra(want int) int {
	ensureBudget()
	if want <= 0 {
		return 0
	}
	for {
		cur := extraTokens.Load()
		if cur <= 0 {
			return 0
		}
		take := int64(want)
		if take > cur {
			take = cur
		}
		if extraTokens.CompareAndSwap(cur, cur-take) {
			return int(take)
		}
	}
}

// debitExtra charges n tokens to the budget unconditionally, allowing
// the balance to go negative. ForEachN (so Map and ForEach) uses it for
// explicit worker requests: the caller's count is honored, and the debt
// makes concurrent elastic fan-outs (Shard, workers<=0 Map) find nothing
// available and run inline, which is exactly the composition the budget
// exists for.
func debitExtra(n int) {
	ensureBudget()
	if n > 0 {
		extraTokens.Add(-int64(n))
	}
}

// releaseExtra returns tokens taken by acquireExtra or debitExtra.
func releaseExtra(n int) {
	if n > 0 {
		extraTokens.Add(int64(n))
	}
}
