package gateway

import (
	"errors"
	"sort"
	"time"

	"jointstream/internal/cell"
	"jointstream/internal/metrics"
	"jointstream/internal/units"
)

// This file is the gateway's open-system serving layer: the admission
// controller, the overload shedder and the graceful drain — the three
// mechanisms that keep a long-running gateway inside its capacity
// envelope instead of degrading every session a little when churn pushes
// it past the paper's closed-world assumptions.
//
//   - Admission control (Attach): the open engine's rule, cell.Admission —
//     a cap on concurrent in-service sessions plus an Eq.-1-style headroom
//     check: the summed required rates of everyone in service, plus the
//     newcomer's, must fit inside AdmitHeadroomFrac × Capacity. Refusals
//     are typed (*cell.OverCapacityError, matching cell.ErrOverCapacity)
//     so callers can answer "come back later" instead of "broken".
//
//   - Load shedding (Step): when the tick-deadline miss rate over the
//     recent shedMissWindowSlots slots crosses shedMissThreshold, up to
//     Policy.ShedMaxPerSlot sessions are detached — lowest playback
//     buffer first (they are rebuffering already; the grants they
//     consume save the most viewers elsewhere), newest on ties. Shed
//     sessions get detachShed and are counted in Diag.Shed.
//
//   - Graceful drain (BeginDrain): the gateway stops admitting (Attach
//     returns errDraining), keeps serving everything in flight, and
//     Drained reports when the last session finished or detached —
//     cmd/jstream-gateway wires SIGTERM to exactly this sequence.
//
// Step also feeds a sliding-window histogram of wall-clock tick
// durations (TickQuantileMs), so deadline pressure is observable as a
// p99 before the shedder has to act on it.

// errDraining rejects attachments while the gateway is draining.
var errDraining = errors.New("gateway: draining, not admitting sessions")

// tickHistWindowSlots is how many slots each tick-duration histogram
// window spans before rotating.
const tickHistWindowSlots = 256

// inService reports whether a user still occupies serving capacity:
// attached and not finished.
func (u *user) inService() bool { return !u.detached && !u.done() }

// anyInService reports whether any session is still being served. Between
// slots g.live holds little else. Callers hold g.mu.
func (g *Gateway) anyInService() bool {
	for _, u := range g.live {
		if u.inService() {
			return true
		}
	}
	return false
}

// admissible applies the admission rule to a prospective session with the
// given required rate, counting the sessions in service and summing their
// last reported rates. Callers hold g.mu.
func (g *Gateway) admissible(rate units.KBps) error {
	if g.draining {
		return errDraining
	}
	if g.admission == (cell.Admission{}) {
		return nil
	}
	inService := 0
	var demand units.KBps
	for _, u := range g.live {
		if !u.inService() {
			continue
		}
		inService++
		if u.haveReport {
			demand += u.lastReport.Rate
		}
	}
	return g.admission.Check(inService, demand, rate)
}

// BeginDrain switches the gateway into drain mode: Attach rejects with
// errDraining, in-flight sessions keep being served, and Drained reports
// when the last one is finished or detached. Idempotent.
func (g *Gateway) BeginDrain() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.draining = true
}

// isDraining reports whether BeginDrain was called.
func (g *Gateway) isDraining() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.draining
}

// Drained reports whether the gateway is draining and every session has
// finished or detached. A never-draining or empty-but-serving gateway
// returns false.
func (g *Gateway) Drained() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.draining && !g.anyInService()
}

// noteTick records one completed Step: its wall duration into the
// sliding tick histogram, and whether it missed the slot deadline into
// the shedder's window. Callers hold g.mu.
func (g *Gateway) noteTick(d time.Duration, missed bool) {
	g.tickHist.Observe(float64(d) / float64(time.Millisecond))
	if g.tickHistSlots++; g.tickHistSlots >= tickHistWindowSlots {
		g.tickHist.Rotate()
		g.quality.Rotate()
		g.tickHistSlots = 0
	}
	if g.policy.ShedMaxPerSlot <= 0 {
		return
	}
	if g.missRing[g.missHead] {
		g.missCount--
	}
	g.missRing[g.missHead] = missed
	if missed {
		g.missCount++
	}
	g.missHead = (g.missHead + 1) % shedMissWindowSlots
}

// maybeShed detaches up to Policy.ShedMaxPerSlot sessions when the
// recent deadline-miss count crosses the threshold: lowest playback
// buffer first (already rebuffering; their grants buy the most relief),
// newest on ties. The miss window resets after a shed so one overload
// burst sheds once, not every following slot. Callers hold g.mu.
func (g *Gateway) maybeShed() {
	p := g.policy
	if p.ShedMaxPerSlot <= 0 || g.missCount < shedMissThreshold {
		return
	}
	var cands []*user
	for _, u := range g.live {
		if u.inService() {
			cands = append(cands, u)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].bufferSec != cands[j].bufferSec {
			return cands[i].bufferSec < cands[j].bufferSec
		}
		return cands[i].id > cands[j].id
	})
	n := p.ShedMaxPerSlot
	if n > len(cands) {
		n = len(cands)
	}
	for k := 0; k < n; k++ {
		g.diag.Shed++
		g.detach(cands[k], detachShed)
	}
	g.missRing, g.missCount = [shedMissWindowSlots]bool{}, 0
}

// TickQuantileMs returns the q-th quantile of Step wall-clock duration
// in milliseconds over the retained sliding windows (≈4×256 recent
// slots), or 0 before the first Step.
func (g *Gateway) TickQuantileMs(q float64) float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.tickHist.Quantile(q)
}

// newTickHist builds the sliding tick-duration histogram: 4 windows of
// 64 bins, 0.25 ms base width (auto-widening).
func newTickHist() *metrics.WindowedHist {
	h, err := metrics.NewWindowedHist(4, 64, 0.25)
	if err != nil {
		panic(err) // constants; cannot fail
	}
	return h
}
