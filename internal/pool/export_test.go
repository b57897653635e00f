package pool

import "runtime"

// SetWorkerBudget sets the total number of pool workers the process may
// run concurrently (each Map/Shard call's own goroutine counts as one)
// and returns the previous budget. n <= 0 resets to GOMAXPROCS. Changing
// the budget while fan-outs are in flight skews the token count until
// they return their tokens.
func SetWorkerBudget(n int) int {
	ensureBudget()
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return int(extraTokens.Swap(int64(n-1))) + 1
}

// WorkerBudget returns the number of currently available pool workers,
// counting the would-be caller itself (so it is at least 1).
func WorkerBudget() int {
	ensureBudget()
	avail := extraTokens.Load()
	if avail < 0 {
		avail = 0
	}
	return int(avail) + 1
}
