package gateway

// This file is the gateway's per-session quality observability: when a
// session ends — natural completion or any detach — its lifetime
// rebuffer time and accounted energy fold into the sliding session
// window (metrics.SessionWindow, the one the open engine keeps), rotated
// on the tick-histogram cadence (tickHistWindowSlots). GET /metrics
// serves the p50/p99 of both over the retained windows, so an operator
// sees the quality of *recently ended* sessions, not an all-time average
// that staleness can't move.

// foldSession lands one ended session's lifetime totals in the quality
// window. It runs once per session: in detach, or in retire for a session
// that completed undetached. Callers hold g.mu.
func (g *Gateway) foldSession(u *user) {
	g.quality.Fold(float64(u.rebufferSec), float64(u.transEnergy)+float64(u.tailEnergy))
}

// SessionMetrics is a snapshot of the sliding per-session quality
// window: quantiles of lifetime rebuffer and energy over sessions that
// ended in the retained windows (≈4×256 recent slots).
type SessionMetrics struct {
	// EndedWindow counts sessions in the retained windows; EndedTotal
	// counts every session ended since the gateway started.
	EndedWindow, EndedTotal  int
	RebufP50Sec, RebufP99Sec float64
	EnergyP50MJ, EnergyP99MJ float64
}

// sessionWindowMetrics returns the sliding-window per-session quality
// snapshot. Quantiles are 0 while no session has ended in the window.
func (g *Gateway) sessionWindowMetrics() SessionMetrics {
	g.mu.Lock()
	defer g.mu.Unlock()
	w := g.quality
	_, retained, total := w.Ended()
	return SessionMetrics{
		EndedWindow: retained,
		EndedTotal:  total,
		RebufP50Sec: w.RebufferQuantile(0.50),
		RebufP99Sec: w.RebufferQuantile(0.99),
		EnergyP50MJ: w.EnergyQuantile(0.50),
		EnergyP99MJ: w.EnergyQuantile(0.99),
	}
}
