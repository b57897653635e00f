package sched

// DefaultScheduler is the paper's baseline (§VI-A): it "delivers video
// contents to each user as much as possible to make full use of throughput
// and satisfy the required data rate". Users are served greedily in index
// order until the slot capacity is exhausted, each receiving up to its
// link limit. Under contention this systematically starves high-index
// users — exactly the unfairness Figures 2 and 3 attribute to it.
type DefaultScheduler struct {
	act []int // activeIndices fallback scratch
}

// NewDefault returns the greedy baseline scheduler.
func NewDefault() *DefaultScheduler { return &DefaultScheduler{} }

// Name implements Scheduler.
func (*DefaultScheduler) Name() string { return "Default" }

// Allocate implements Scheduler.
func (d *DefaultScheduler) Allocate(slot *Slot, alloc []int) {
	remaining := slot.CapacityUnits
	for _, i := range slot.activeIndices(&d.act) {
		if remaining == 0 {
			break
		}
		a := slot.MaxUnitsAt(i)
		if a > remaining {
			a = remaining
		}
		alloc[i] = a
		remaining -= a
	}
}
