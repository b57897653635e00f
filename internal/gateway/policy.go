package gateway

import (
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// This file implements the gateway's degradation policy: how the serving
// path survives the client-side variability real cellular devices exhibit
// (stalls, flaps, vanishing reports) instead of assuming the paper's
// ideal always-reporting, always-absorbing device model.
//
// Three mechanisms compose:
//
//   - Stale-report grace: a user whose Report goes missing keeps its last
//     good report for staleGraceSlots slots under conservative admission
//     (rate-proportional allocation only, no opportunistic prefetch)
//     before it is detached. Flapping clients that report again inside
//     the window reattach with no loss of session state.
//
//   - Transient-error backoff: a classified-transient Deliver failure
//     does not detach the user; it schedules a retry after an
//     exponentially growing number of slots (backoffBaseSlots doubling up
//     to backoffMaxSlots). A success resets the streak.
//
//   - Circuit breaker: BreakerTrips consecutive transient failures —
//     delivery errors or missed slot deadlines — open the breaker and
//     detach the user for good, bounding how long a flapping or stalled
//     endpoint can consume grants.
//
// Fatal errors (closed connections, EPIPE-class failures) detach
// immediately, as before.

// Policy tunes the gateway's degraded-mode behavior. The zero value
// selects the defaults below; set a field negative to force zero.
type Policy struct {
	// BreakerTrips is the number of consecutive transient failures
	// (delivery errors or stalled-delivery slots) that opens the circuit
	// breaker and detaches the user.
	BreakerTrips int
	// AsyncDelivery moves Deliver calls onto one worker goroutine per
	// endpoint so a stalled reader can never block the slot tick; Step
	// waits at most SlotDeadline for the slot's deliveries and treats
	// laggards as in-flight (their outcome is committed when observed).
	AsyncDelivery bool
	// SlotDeadline is how long an async Step waits for the slot's
	// deliveries before moving on.
	SlotDeadline time.Duration
	// ShedMaxPerSlot enables load shedding when positive: when the count
	// of tick-deadline misses inside the recent shedMissWindowSlots slots
	// reaches shedMissThreshold, up to this many in-service sessions are
	// detached per slot (lowest playback buffer first, newest on ties).
	// Zero (the default) disables shedding entirely.
	ShedMaxPerSlot int
}

const (
	// staleGraceSlots is how many consecutive slots a missing report is
	// papered over with the last good one before the user is detached.
	staleGraceSlots = 5
	// backoffBaseSlots is the retry delay after the first transient
	// delivery failure; each further consecutive failure doubles it up to
	// backoffMaxSlots.
	backoffBaseSlots = 1
	backoffMaxSlots  = 8
	// shedMissWindowSlots is the length of the sliding deadline-miss
	// window the shedder watches; shedMissThreshold misses inside it
	// trigger a shed.
	shedMissWindowSlots = 16
	shedMissThreshold   = 8
)

// Default policy values.
const (
	defaultBreakerTrips = 5
	defaultSlotDeadline = 50 * time.Millisecond
)

// withDefaults resolves the zero/negative conventions.
func (p Policy) withDefaults() Policy {
	resolve := func(v *int, def int) {
		if *v == 0 {
			*v = def
		} else if *v < 0 {
			*v = 0
		}
	}
	resolve(&p.BreakerTrips, defaultBreakerTrips)
	if p.SlotDeadline == 0 {
		p.SlotDeadline = defaultSlotDeadline
	} else if p.SlotDeadline < 0 {
		p.SlotDeadline = 0
	}
	if p.ShedMaxPerSlot < 0 {
		p.ShedMaxPerSlot = 0
	}
	return p
}

// validate checks the policy (after default resolution anything goes, so
// this only rejects nonsensical explicit combinations).
func (p Policy) validate() error {
	if p.AsyncDelivery && p.SlotDeadline < 0 {
		return fmt.Errorf("gateway: async delivery needs a non-negative slot deadline")
	}
	return nil
}

// ErrorClass partitions delivery errors for the retry path.
type ErrorClass int

// Delivery error classes.
const (
	// transientError marks a failure worth retrying: timeouts, short
	// writes, injected drops. The user stays attached and backs off.
	transientError ErrorClass = iota
	// fatalError marks a dead endpoint: closed or reset connections. The
	// user is detached immediately.
	fatalError
)

// String implements fmt.Stringer.
func (c ErrorClass) String() string {
	switch c {
	case transientError:
		return "transient"
	case fatalError:
		return "fatal"
	default:
		return fmt.Sprintf("ErrorClass(%d)", int(c))
	}
}

// classedError carries an explicit class through an error chain.
type classedError struct {
	err   error
	class ErrorClass
}

func (e *classedError) Error() string { return e.err.Error() }
func (e *classedError) Unwrap() error { return e.err }

// Transient marks err as retryable for classify.
func Transient(err error) error { return &classedError{err: err, class: transientError} }

// fatal marks err as non-retryable for classify.
func fatal(err error) error { return &classedError{err: err, class: fatalError} }

// classify maps a delivery error to its class. Explicit marks (Transient,
// fatal) win; otherwise network timeouts are transient, closed/reset
// connections are fatal, and anything unrecognized defaults to transient
// so the breaker — not a single glitch — decides detachment.
func classify(err error) ErrorClass {
	var ce *classedError
	if errors.As(err, &ce) {
		return ce.class
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return transientError
	}
	if errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrClosedPipe) ||
		errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
		return fatalError
	}
	var oe *net.OpError
	if errors.As(err, &oe) {
		// Non-timeout socket-level failures (EPIPE, ECONNRESET, refused)
		// mean the peer is gone.
		return fatalError
	}
	return transientError
}

// DetachReason records why the gateway gave up on a user.
type DetachReason string

// Detach reasons surfaced in Stats and the monitoring API; an attached
// user's is empty.
const (
	detachFatal   DetachReason = "fatal-error"
	detachBreaker DetachReason = "breaker-open"
	detachStale   DetachReason = "stale-report"
	detachShed    DetachReason = "shed"
)

// Diag aggregates the gateway's degradation counters across users. All
// counters are monotone; DegradedSlots counts slots in which at least one
// attached user was served in a degraded mode (stale report, backoff, or
// in-flight delivery). The JSON tags are the monitoring API's /diag shape.
type Diag struct {
	TransientErrors int `json:"transient_errors"`
	FatalErrors     int `json:"fatal_errors"`
	MissedDeadlines int `json:"missed_deadlines"`
	StaleSlots      int `json:"stale_slots"`
	Reattaches      int `json:"reattaches"`
	BreakerOpens    int `json:"breaker_opens"`
	StaleDetaches   int `json:"stale_detaches"`
	DegradedSlots   int `json:"degraded_slots"`
	// Open-system serving counters: sessions admitted through the
	// admission controller, rejected by it, detached by the load shedder,
	// and completed while draining.
	Admitted int `json:"admitted"`
	Rejected int `json:"rejected"`
	Shed     int `json:"shed"`
	Drained  int `json:"drained"`
}

// Diagnostics returns a snapshot of the gateway's degradation counters.
func (g *Gateway) Diagnostics() Diag {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.diag
}
