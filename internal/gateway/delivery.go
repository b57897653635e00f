package gateway

import (
	"time"

	"jointstream/internal/units"
)

// This file implements the per-endpoint asynchronous delivery path. With
// Policy.AsyncDelivery set, each user's Deliver calls run on a dedicated
// worker goroutine: Step snapshots the granted bytes, hands them to the
// worker, and waits at most Policy.SlotDeadline for the slot's deliveries
// to complete. A stalled reader therefore costs only its own slot grant —
// never the tick. Deliveries that outlive the deadline stay in flight;
// their outcome (success, transient error, fatal error) is committed at
// the next Step that observes the completion. While a delivery is in
// flight the user is not granted further data, and each such slot counts
// toward the circuit breaker, so an endpoint stalled forever is detached
// after Policy.BreakerTrips slots — deterministically, not by a data
// race with the transport.
//
// Plumbing: every worker owns a capacity-1 result channel (one job can be
// outstanding per endpoint, so the send never blocks) and rings a shared
// capacity-1 wake bell after publishing. The collector scans every live
// user on every ring, so a dropped ring (bell already full) can never lose
// a completion.

// deliveryJob is one slot grant handed to an endpoint worker.
type deliveryJob struct {
	payload []byte
	slot    int
	// rate snapshots the report used for the grant, so late completions
	// commit playback progress with the numbers of the slot that granted
	// them.
	rate units.KBps
}

// deliveryResult is a worker's completion notice.
type deliveryResult struct {
	job deliveryJob
	err error
}

// deliveryWorker serializes one endpoint's Deliver calls.
type deliveryWorker struct {
	jobs chan deliveryJob
	done chan deliveryResult // cap 1: at most one job outstanding
}

// ensureWorker lazily starts user u's delivery worker.
func (g *Gateway) ensureWorker(u *user) *deliveryWorker {
	if u.worker != nil {
		return u.worker
	}
	w := &deliveryWorker{jobs: make(chan deliveryJob, 1), done: make(chan deliveryResult, 1)}
	u.worker = w
	ep, wake := u.ep, g.wake
	go func() {
		for job := range w.jobs {
			err := ep.Deliver(job.payload)
			w.done <- deliveryResult{job: job, err: err}
			// Ring the bell after publishing; a full bell means the
			// collector will scan anyway.
			select {
			case wake <- struct{}{}:
			default:
			}
		}
	}()
	return w
}

// submitAsync hands a grant to the user's worker. It never blocks: the
// caller checks inFlight before granting, so the 1-slot job buffer is
// always free here.
func (g *Gateway) submitAsync(u *user, job deliveryJob) {
	w := g.ensureWorker(u)
	u.inFlight = true
	w.jobs <- job
}

// collectCompletions applies every completion already published, and
// returns how many of them belonged to the given slot. Callers hold g.mu.
func (g *Gateway) collectCompletions(slot int) int {
	n := 0
	for _, u := range g.live {
		w := u.worker
		if w == nil {
			continue
		}
		select {
		case r := <-w.done:
			if r.job.slot == slot {
				n++
			}
			g.completeDelivery(u, r)
		default:
		}
	}
	return n
}

// awaitSlotDeliveries blocks until every delivery submitted for slot
// `slot` has completed or the deadline elapses, applying every completion
// it observes (including late ones from earlier slots). It returns the
// number of this-slot deliveries still in flight at the deadline.
// Callers hold g.mu.
func (g *Gateway) awaitSlotDeliveries(slot, submitted int, deadline time.Duration) int {
	submitted -= g.collectCompletions(slot)
	if submitted <= 0 {
		return 0
	}
	if deadline <= 0 {
		return submitted
	}
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	for submitted > 0 {
		select {
		case <-g.wake:
			submitted -= g.collectCompletions(slot)
		case <-timer.C:
			return submitted
		}
	}
	return 0
}

// completeDelivery commits one finished async delivery: on success the
// playback bookkeeping the synchronous path does at transmit time; on
// failure the bytes return to the head of the queue and the error is
// routed through the classification/backoff/breaker policy. Callers hold
// g.mu.
func (g *Gateway) completeDelivery(u *user, r deliveryResult) {
	u.inFlight = false
	if r.err != nil {
		// The grant was not absorbed: un-consume the bytes so the session
		// loses no data, then apply the failure policy.
		u.putBack(r.job.payload)
		g.deliveryFailed(u, r.err)
	} else {
		g.delivered(u, len(r.job.payload), r.job.rate)
	}
}

// closeWorkers shuts down every delivery worker still running (a retired
// session has released its own). Closing the jobs channel is safe even
// with a delivery outstanding: the worker finishes it, publishes to its
// cap-1 done channel without blocking, and exits. Workers blocked inside a
// stalled Deliver exit when the endpoint releases them. Callers hold g.mu.
func (g *Gateway) closeWorkers() {
	for _, u := range g.live {
		if u.worker != nil {
			close(u.worker.jobs)
			u.worker = nil
		}
	}
}

// Close ends the gateway after its last Step: the delivery workers exit
// and every queue buffer, those of sessions still in service included, is
// left to the next gateway in the process. StatsFor and the other readers
// keep answering; Step does not.
func (g *Gateway) Close() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.closeWorkers()
	g.closed = true
	for _, u := range g.live {
		g.freeBuf(u)
	}
	for i := range g.freeBufs {
		spareBufs.Put(&g.freeBufs[i])
	}
	g.freeBufs = nil
}

// deliveryFailed routes a classified delivery error through the policy.
// Callers hold g.mu.
func (g *Gateway) deliveryFailed(u *user, err error) {
	switch classify(err) {
	case fatalError:
		g.diag.FatalErrors++
		g.detach(u, detachFatal)
	default:
		g.diag.TransientErrors++
		u.transientErrors++
		g.recordStrike(u)
	}
}

// recordStrike counts one transient failure (delivery error or stalled
// slot) against the user: the breaker opens at Policy.BreakerTrips
// consecutive strikes, otherwise the user backs off exponentially.
// Callers hold g.mu.
func (g *Gateway) recordStrike(u *user) {
	u.failStreak++
	if g.policy.BreakerTrips > 0 && u.failStreak >= g.policy.BreakerTrips {
		g.diag.BreakerOpens++
		g.detach(u, detachBreaker)
		return
	}
	backoff := backoffMaxSlots
	if s := u.failStreak - 1; s < 30 {
		if b := backoffBaseSlots << s; b < backoff {
			backoff = b
		}
	}
	u.backoffUntil = g.slot + 1 + backoff
}

// delivered credits a delivery of n bytes that landed, in either delivery
// mode: the bytes count as sent, the playback estimate gains their
// duration at the granting slot's rate, and the failure streak resets (a
// backoff retry that lands reattaches the user at full service). Callers
// hold g.mu.
func (g *Gateway) delivered(u *user, n int, rate units.KBps) {
	deliveredKB := units.KB(float64(n) / 1000)
	u.sentKB += deliveredKB
	if rate > 0 {
		u.bufferSec += units.Seconds(float64(deliveredKB) / float64(rate))
	}
	if u.failStreak > 0 {
		u.failStreak = 0
		u.backoffUntil = 0
		g.diag.Reattaches++
	}
}

// detach ends a user's service: its lifetime totals fold now, and the end
// of the slot (or of its in-flight delivery) retires it. Callers hold g.mu.
func (g *Gateway) detach(u *user, reason DetachReason) {
	if u.detached {
		return
	}
	g.foldSession(u)
	u.detached = true
	u.detachReason = reason
}
