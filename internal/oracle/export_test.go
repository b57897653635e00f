package oracle

import "jointstream/internal/workload"

// Plan is the omniscient greedy schedule behind the upper bound:
// Alloc[n][u] is the data-unit grant of user u in slot n. Feeding it back
// through the real simulator (sched.NewPlanned) measures what the
// clairvoyant energy plan does to playback — it ignores buffer dynamics
// entirely, so its rebuffering can be arbitrarily bad.
type Plan struct {
	Alloc  [][]int
	Bounds Bounds
}

// ComputePlan evaluates the bounds and returns the upper bound's schedule.
func ComputePlan(cfg Config, sessions []*workload.Session) (*Plan, error) {
	b, alloc, err := compute(cfg, sessions, true)
	if err != nil {
		return nil, err
	}
	return &Plan{Alloc: alloc, Bounds: b}, nil
}
