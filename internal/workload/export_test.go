package workload

import "jointstream/internal/rng"

// Helpers only the package's tests use.

// ArrivalSlots expands an arrival process into the first n absolute
// start slots, beginning at firstSlot. It consumes draws from src in the
// same order Generate would, so a driver can precompute a schedule that
// matches a generated workload.
func ArrivalSlots(p ArrivalProcess, n, firstSlot int, src *rng.Source) []int {
	slots := make([]int, n)
	start := firstSlot
	for i := 0; i < n; i++ {
		if p != nil && i > 0 {
			if g := p.NextGap(i, src); g > 0 {
				start += g
			}
		}
		slots[i] = start
	}
	return slots
}
