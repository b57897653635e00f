package fault

// Zero reports whether the plan injects no faults at all; a zero plan's
// wrappers return their inputs unchanged.
func (p Plan) Zero() bool {
	return p.Endpoint.zero() && p.Source.zero() && len(p.Sites) == 0
}
