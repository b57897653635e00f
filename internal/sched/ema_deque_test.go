package sched

import "math"

// The unclipped monotone-deque DP: the tie-exact oracle of the production
// solver. It slides the full maxPhi-wide window over every state up to
// capacity and stores every state's choice, so it knows nothing of runDP's
// want-clip, value-only passes or backtrack rescan — and must return the
// same allocation, bit for bit.

// AllocateDeque is Allocate with runDPDeque as the per-slot solver.
func (e *EMA) AllocateDeque(slot *Slot, alloc []int) {
	e.allocate(slot, alloc, (*EMA).runDPDeque)
}

// runDPDeque answers the sliding-window minimum of runDP's recurrence with
// a monotone deque, amortized O(1) per state. Each state j is pushed and
// popped at most once per user; the deque prefers the largest j (smallest
// ϕ) on ties in g via ≥-eviction, and unreachable states (cost =
// MaxFloat64) are never pushed, preserving the paper-literal DP's exact
// infeasibility semantics.
func (e *EMA) runDPDeque(lines []userLine, capacity int, alloc []int) {
	cost, next, choice := newChoiceDP(len(lines), capacity)
	dqJ := make([]int32, capacity+1)   // candidate predecessor states j
	dqG := make([]float64, capacity+1) // g[j] = cost[j] − perUnit·j

	const inf = math.MaxFloat64
	for k, l := range lines {
		granted := choice[k*(capacity+1):][:capacity+1]

		head, tail := 0, 0
		for m := 0; m <= capacity; m++ {
			if m > 0 {
				// State j = m−1 enters the window (ϕ = 1 is always
				// within maxPhi ≥ 1); stale states leave at the front.
				if prev := cost[m-1]; prev < inf {
					g := prev - l.perUnit*float64(m-1)
					for tail > head && dqG[tail-1] >= g {
						tail--
					}
					dqJ[tail] = int32(m - 1)
					dqG[tail] = g
					tail++
				}
				for tail > head && int(dqJ[head]) < m-l.maxPhi {
					head++
				}
			}
			best := inf
			var bestPhi int32
			if cost[m] < inf {
				best = cost[m] + l.skip
			}
			if tail > head {
				if c := l.base + l.perUnit*float64(m) + dqG[head]; c < best {
					best = c
					bestPhi = int32(m) - dqJ[head]
				}
			}
			next[m] = best
			granted[m] = bestPhi
		}
		cost, next = next, cost
	}
	e.finishChoiceDP(cost, choice, capacity, alloc)
}
