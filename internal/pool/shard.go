package pool

// Shard runs fn(shard) for every shard index in [0, shards), fanning the
// calls across at most workers goroutines. It is the low-overhead sibling
// of ForEachN for the simulator's per-slot tick path: the same claim loop
// with no context, no error plumbing and no per-job wrapper, so
// dispatching a slot's prepare or commit phase costs one goroutine spawn
// per extra worker and one atomic add per run of shards. A worker claims
// runs of consecutive shards, about runsPerWorker of them: neighbouring
// shards share the cache lines at their edges, and a worker that walks on
// from one shard into the next keeps its prefetch streams.
//
// fn must confine its writes to shard-local state; Shard returns only
// after every shard completed. workers <= 1 (or a single shard) runs the
// loop inline on the caller's goroutine, allocating nothing, which the
// simulator relies on for its serial-equals-parallel determinism
// guarantee. A panic in fn stops further claims and is re-raised on the
// caller's goroutine once the running shards drain.
//
// The caller's goroutine always participates as one worker; the other
// workers-1 are requested from the process-wide worker budget
// (budget.go), so nested fan-outs — figure sweeps over sharded
// simulators — degrade to inline execution instead of oversubscribing
// the machine. Throttling never changes the result: shards write
// disjoint state regardless of which goroutine claims them.
//
// An extra worker starts late: ≈ 75–130 µs after Shard's entry
// (BenchmarkShardWake; 2-core Xeon, go1.24), and in the tick 55, 63 and
// 95 µs in at N = 4 096, 11 000 and 100 000 against the caller's own 94,
// 225 and 1 557 µs. The wake of an idle P, not the spawn, is the loss;
// helpers spinning ≤ 100 µs between calls bought cell_dense only −4 %.
func Shard(workers, shards int, fn func(shard int)) {
	if shards <= 0 {
		return
	}
	extra := 0
	if workers > 1 {
		extra = acquireExtra(min(workers, shards) - 1)
		defer releaseExtra(extra)
	}
	if extra == 0 {
		for i := 0; i < shards; i++ {
			fn(i)
		}
		return
	}
	run := max(1, shards/(runsPerWorker*(extra+1)))
	if _, p := claim(extra, shards, run, nil, fn); p != nil {
		panic(p)
	}
}

// runsPerWorker is how many runs of shards Shard deals each worker: enough
// for a worker held up elsewhere to leave its share to the others.
const runsPerWorker = 16
