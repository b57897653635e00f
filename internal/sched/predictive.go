package sched

import (
	"fmt"
	"math"

	"jointstream/internal/units"
)

// defaultPredictiveSafety is the rebuffer-safety floor used when
// PredictiveConfig.SafetySec is zero: a deferring user must keep at
// least this many seconds buffered beyond the wait it signs up for.
const defaultPredictiveSafety units.Seconds = 4

// PredictiveConfig parameterizes the lookahead scheduler.
type PredictiveConfig struct {
	// Lookahead is K, the number of future slots the scheduler may
	// inspect through the forecast. Zero disables prediction entirely
	// and the scheduler degenerates to the myopic greedy baseline
	// (byte-identical to DefaultScheduler — the differential tests pin
	// this).
	Lookahead int
	// Forecast supplies the future-channel view. nil is allowed and,
	// like Lookahead 0, yields the myopic baseline; the engine-facing
	// constructor is cell.LinkTable.Forecast (exact) or
	// cell.NewNoisyForecast (error-corrupted).
	Forecast Forecast
	// SafetySec is the rebuffer-safety floor: a user may idle-wait for
	// a cheaper slot d slots ahead only while its playback buffer holds
	// at least d·τ + SafetySec seconds, so a perfectly wrong forecast
	// can cost energy but never force an immediate stall. Zero selects
	// defaultPredictiveSafety; negative is invalid.
	SafetySec units.Seconds
}

// Predictive is the lookahead-K scheduler (cf. Abou-zeid et al.,
// predictive green streaming): where every baseline in
// this package prices only the current slot, Predictive reads a K-slot
// window of future link prices from a Forecast and shifts each user's
// transmission toward the cheapest visible slot.
//
// Per active user, in index order (the Default scheduler's contention
// rule, so capacity clipping stays comparable):
//
//  1. Find the cheapest predicted slot with nonzero predicted link
//     capacity in the window (n, n+K], truncated at the forecast
//     horizon. Ties prefer the earliest slot.
//  2. If the current slot is at least as cheap — or no future slot is
//     visible (K = 0, nil forecast, table edge, or all-zero predicted
//     links) — transmit greedily now: the full Eq. (1) grant, exactly
//     like Default.
//  3. Otherwise a strictly cheaper slot lies d slots ahead. If the
//     playback buffer survives the wait with the safety floor intact
//     (r_i(n) ≥ d·τ + SafetySec), allocate nothing and let the radio
//     idle toward the cheaper slot. If the buffer is too shallow to
//     wait safely, allocate only ϕ_need (Eq. 7's smooth-playback
//     minimum) — the expensive slot is used for survival, not bulk.
//
// Every grant passes through MaxUnitsAt, so Eq. (1)+(2) hold without
// the engine's clamp; the property suite asserts it. Energy savings
// come from buying bytes at predicted price minima; the cost is tail
// energy across the idle gaps and exposure to forecast error, both of
// which the oracle-bracket experiments quantify.
type Predictive struct {
	k      int
	f      Forecast
	safety units.Seconds

	act []int // activeIndices fallback scratch
}

// NewPredictive validates the configuration and returns the scheduler.
func NewPredictive(cfg PredictiveConfig) (*Predictive, error) {
	if cfg.Lookahead < 0 {
		return nil, fmt.Errorf("sched: negative lookahead %d", cfg.Lookahead)
	}
	if cfg.SafetySec < 0 {
		return nil, fmt.Errorf("sched: negative rebuffer-safety floor %v", cfg.SafetySec)
	}
	safety := cfg.SafetySec
	if safety == 0 {
		safety = defaultPredictiveSafety
	}
	return &Predictive{k: cfg.Lookahead, f: cfg.Forecast, safety: safety}, nil
}

// Name implements Scheduler.
func (*Predictive) Name() string { return "Predictive" }

// Allocate implements Scheduler.
func (p *Predictive) Allocate(slot *Slot, alloc []int) {
	// maxD is the deepest visible lookahead distance this slot, after
	// truncating the window at the forecast horizon (the table edge).
	maxD := 0
	if p.k > 0 && p.f != nil {
		maxD = p.k
		if last := p.f.HorizonSlots() - 1 - slot.N; maxD > last {
			maxD = last
		}
		if maxD < 0 {
			maxD = 0
		}
	}
	remaining := slot.CapacityUnits
	for _, i := range slot.activeIndices(&p.act) {
		if remaining == 0 {
			break
		}
		a := slot.MaxUnitsAt(i)
		if maxD > 0 && a > 0 {
			a = p.decide(slot, i, a, maxD)
		}
		if a > remaining {
			a = remaining
		}
		alloc[i] = a
		remaining -= a
	}
}

// decide applies the lookahead rule for one user and returns its grant
// before capacity clipping. maxU is the user's Eq. (1) limit this slot.
func (p *Predictive) decide(slot *Slot, i, maxU, maxD int) int {
	best := math.Inf(1)
	bestDist := 0
	for d := 1; d <= maxD; d++ {
		if p.f.PredictedLinkUnits(slot.N+d, i) <= 0 {
			continue
		}
		if price := float64(p.f.PredictedEnergyPerKB(slot.N+d, i)); price < best {
			best = price
			bestDist = d
		}
	}
	if bestDist == 0 || float64(slot.EnergyPerKBAt(i)) <= best {
		// The current slot is the cheapest visible opportunity (or the
		// window is empty): transmit greedily, like Default.
		return maxU
	}
	wait := units.Seconds(float64(bestDist)) * slot.Tau
	if slot.bufferSecAt(i) >= wait+p.safety {
		// The buffer covers the wait with the safety floor to spare:
		// idle toward the cheaper slot.
		return 0
	}
	// Too shallow to wait: keep playback alive at the minimum rate, but
	// don't bulk-buy at a price the forecast says will improve.
	return slot.needUnitsAt(i)
}
