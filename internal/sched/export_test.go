package sched

// DPStates returns the band states e's production DP has filled so far:
// one add of a row's band width per pass.
func (e *EMA) DPStates() int { return e.dpStates }

// SetChurnLimit overrides r's incremental-order churn threshold: a slot
// whose candidate set changes by more than limit entries (removals plus
// insertions) re-sorts from scratch instead of repairing. limit = 0 forces
// a full sort on any churn (FuzzRTMAChurn's reference arm); a negative
// limit restores the default max(8, candidates/8).
func (r *RTMA) SetChurnLimit(limit int) { r.order.limit = limit }
