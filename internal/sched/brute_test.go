package sched

import "math"

// BruteForceObjective exhaustively minimizes Σ f(i, ϕ_i) over all feasible
// allocations (Σϕ ≤ capacity, ϕ_i ≤ max_i) for an arbitrary per-user cost
// function. It is exponential and exists only as a reference oracle for
// testing the EMA dynamic program on small instances.
//
// cost(i, phi) must be defined for every user index in users and every
// phi in [0, max_i]. Returns the minimizing allocation and its objective.
func BruteForceObjective(maxUnits []int, capacity int, cost func(i, phi int) float64) ([]int, float64) {
	n := len(maxUnits)
	best := make([]int, n)
	cur := make([]int, n)
	bestCost := math.Inf(1)

	// No branch-and-bound pruning: per-user costs may be negative (EMA's
	// drift term), so partial sums do not lower-bound completions.
	var rec func(i, used int, acc float64)
	rec = func(i, used int, acc float64) {
		if i == n {
			if acc < bestCost {
				bestCost = acc
				copy(best, cur)
			}
			return
		}
		hi := maxUnits[i]
		if hi > capacity-used {
			hi = capacity - used
		}
		for phi := 0; phi <= hi; phi++ {
			cur[i] = phi
			rec(i+1, used+phi, acc+cost(i, phi))
		}
		cur[i] = 0
	}
	rec(0, 0, 0)
	return best, bestCost
}
