package sched

import "fmt"

// ProportionalFair is the classic cellular downlink scheduler (Kelly 1997;
// deployed in HSDPA/LTE MACs): each slot users are ranked by the ratio of
// their instantaneous achievable rate to their exponentially averaged
// served throughput, and capacity is granted in that order. It maximizes
// Σ log(throughput) in the long run and is the natural "what the base
// station would do anyway" reference point between the paper's greedy
// Default and its fairness-aware RTMA; it is included as an extension
// baseline (not one of the paper's comparison set).
type ProportionalFair struct {
	// tc is the averaging time constant in slots (typically ~1000 ms/τ;
	// 3GPP implementations use 100 TTIs).
	tc float64
	// avg is the per-user average served rate in KB per slot.
	avg []float64

	// scratch reused across slots.
	cands []pfCand
	act   []int // activeIndices fallback scratch
}

// pfCand is one ranked candidate of a slot.
type pfCand struct {
	idx      int
	priority float64
}

// NewProportionalFair builds the scheduler with the given averaging time
// constant in slots (≥ 1).
func NewProportionalFair(tcSlots float64) (*ProportionalFair, error) {
	if tcSlots < 1 {
		return nil, fmt.Errorf("propfair: time constant %v < 1 slot", tcSlots)
	}
	return &ProportionalFair{tc: tcSlots}, nil
}

// Name implements Scheduler.
func (*ProportionalFair) Name() string { return "PropFair" }

// ResetRow and MoveRow implement RowState: a new row was never served.
func (p *ProportionalFair) ResetRow(i int)       { resetRow(p.avg, i, 0) }
func (p *ProportionalFair) MoveRow(from, to int) { moveRow(p.avg, from, to, 0) }

// Allocate implements Scheduler.
func (p *ProportionalFair) Allocate(slot *Slot, alloc []int) {
	for len(p.avg) < slot.NumUsers() {
		p.avg = append(p.avg, 0)
	}
	// Rank active users by rate/average (Inf for never-served users, who
	// therefore go first — the standard cold-start behaviour).
	p.cands = p.cands[:0]
	for _, i := range slot.activeIndices(&p.act) {
		if slot.MaxUnitsAt(i) == 0 {
			continue
		}
		inst := float64(slot.linkRateAt(i)) * float64(slot.Tau)
		pr := inst
		if p.avg[i] > 0 {
			pr = inst / p.avg[i]
		} else {
			pr = inst * 1e12 // effectively infinite priority
		}
		p.cands = append(p.cands, pfCand{idx: i, priority: pr})
	}
	// Insertion sort by priority descending (N is small; stable and
	// allocation-free).
	cands := p.cands
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].priority > cands[j-1].priority; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	remaining := slot.CapacityUnits
	for _, c := range cands {
		if remaining == 0 {
			break
		}
		a := slot.MaxUnitsAt(c.idx)
		if a > remaining {
			a = remaining
		}
		alloc[c.idx] = a
		remaining -= a
	}
	// Update the served-rate averages with this slot's outcome. This loop
	// deliberately stays a full scan: inactive users were served nothing,
	// so their averages keep decaying toward zero, exactly as a base
	// station's MAC would age out a silent bearer.
	w := 1 / p.tc
	for i, n := 0, slot.NumUsers(); i < n; i++ {
		served := float64(alloc[i]) * float64(slot.Unit)
		p.avg[i] = (1-w)*p.avg[i] + w*served
	}
}

var _ Scheduler = (*ProportionalFair)(nil)
