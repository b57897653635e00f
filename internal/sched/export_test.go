package sched

// DPStates returns the band states e's production DP has filled so far:
// one add of a row's band width per pass.
func (e *EMA) DPStates() int { return e.dpStates }
