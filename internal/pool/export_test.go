package pool

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
