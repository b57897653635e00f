package gateway

import "jointstream/internal/metrics"

// This file is the gateway's per-session quality observability: when a
// session ends — natural completion or any detach — its lifetime
// rebuffer time and accounted energy fold into a pair of sliding
// windowed histograms, rotated on the tick-histogram cadence
// (tickHistWindowSlots). GET /metrics serves the p50/p99 of both over
// the retained windows, so an operator sees the quality of *recently
// ended* sessions, not an all-time average that staleness can't move.

// newSessionHists builds the sliding per-session quality histograms:
// rebuffer in seconds (0.25 s base bins) and energy in millijoules
// (50 mJ base bins), both 4 windows of 64 auto-widening bins.
func newSessionHists() (rebuf, energy *metrics.WindowedHist) {
	r, err := metrics.NewWindowedHist(4, 64, 0.25)
	if err != nil {
		panic(err) // constants; cannot fail
	}
	e, err := metrics.NewWindowedHist(4, 64, 50)
	if err != nil {
		panic(err) // constants; cannot fail
	}
	return r, e
}

// foldSession lands one ended session's lifetime totals in the windowed
// histograms. It runs once per session: in detach, or in retire for a
// session that completed undetached. Callers hold g.mu.
func (g *Gateway) foldSession(u *user) {
	g.endedTotal++
	g.rebufHist.Observe(float64(u.rebufferSec))
	g.energyHist.Observe(float64(u.transEnergy) + float64(u.tailEnergy))
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

// SessionWindowMetrics returns the sliding-window per-session quality
// snapshot. Quantiles are 0 while no session has ended in the window.
func (g *Gateway) SessionWindowMetrics() SessionMetrics {
	g.mu.Lock()
	defer g.mu.Unlock()
	m := SessionMetrics{EndedTotal: g.endedTotal}
	if g.rebufHist != nil && g.rebufHist.Count() > 0 {
		m.EndedWindow = int(g.rebufHist.Count())
		m.RebufP50Sec = g.rebufHist.Quantile(0.50)
		m.RebufP99Sec = g.rebufHist.Quantile(0.99)
	}
	if g.energyHist != nil && g.energyHist.Count() > 0 {
		m.EnergyP50MJ = g.energyHist.Quantile(0.50)
		m.EnergyP99MJ = g.energyHist.Quantile(0.99)
	}
	return m
}
