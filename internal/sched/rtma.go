package sched

import (
	"fmt"
	"math"

	"jointstream/internal/radio"
	"jointstream/internal/rrc"
	"jointstream/internal/signal"
	"jointstream/internal/units"
)

// RTMA is the paper's Rebuffering Time Minimization Algorithm (Alg. 1).
//
// Goal (Eq. 11): minimize the average rebuffering time PC(Γ) subject to the
// link constraint (Eq. 1), the capacity constraint (Eq. 2) and a per-user,
// per-slot energy budget Φ (Eq. 10). The energy budget is enforced through
// the signal-strength admission threshold φ of Eq. (12),
//
//	Φ = ½ [P(φ)·v(φ)·τ + τ·P_tail]
//
// i.e. Φ is read as the mean of the full-rate transmission energy and the
// tail energy of one slot; users whose signal is weaker than φ are not
// scheduled this slot (their per-byte price would be too high).
//
// Allocation itself is smallest-required-rate-first water-filling: users
// are sorted by p_i(n) ascending, each round every admitted user receives
// up to its per-slot need ϕ_need = ⌈τ·p_i/δ⌉, and rounds repeat (buffering
// ahead for future slots) until the capacity or every user's link bound is
// exhausted. The sorted order persists across slots and is repaired
// incrementally (see order.go): only users whose rate or admission actually
// changed pay sort work, with a full re-sort past a churn threshold.
type RTMA struct {
	budget    units.MJ // Φ: per-user per-slot energy budget
	threshold units.DBm
	// admitAll short-circuits the admission test when the budget is loose
	// enough that even the weakest representable signal satisfies it.
	admitAll bool

	// order maintains the (rate, index)-sorted candidate list across slots.
	order rtmaOrder

	// scratch reused across slots to avoid per-slot allocation.
	keys     []rtmaKey   // this slot's candidates, ascending user index
	work     []rtmaWork  // water-filling items (banked got/max state)
	liveWork []*rtmaWork // the rounds' compacting window into work
	zero     []int       // admitted zero-need users, served from the spare-capacity drain
	act      []int       // activeIndices fallback scratch
}

// rtmaKey precomputes one candidate's sort key and per-slot need so the
// sort compares plain values (no closure, no double indirection into the
// slot) and the water-filling rounds never recompute ϕ_need. The (rate,
// index) key is a strict total order — index ties are impossible — so the
// sorted candidate sequence is unique and any repair strategy that
// reproduces the candidate set sorted by it is exactly the full sort.
type rtmaKey struct {
	rate units.KBps
	idx  int32
	need int32
}

// RTMAConfig configures RTMA.
type RTMAConfig struct {
	// Budget is Φ, the expected maximum per-user per-slot energy (mJ).
	// The paper sets Φ = α × (measured Default strategy energy).
	Budget units.MJ
	// Radio supplies v(sig) and P(sig) for deriving φ.
	Radio radio.Model
	// RRC supplies P_tail (the DCH power Pd) for Eq. (12).
	RRC rrc.Profile
}

// NewRTMA derives the admission threshold φ from the energy budget via
// Eq. (12) and returns the scheduler.
func NewRTMA(cfg RTMAConfig) (*RTMA, error) {
	if cfg.Budget <= 0 {
		return nil, fmt.Errorf("rtma: non-positive energy budget %v", cfg.Budget)
	}
	if cfg.Radio.Throughput == nil || cfg.Radio.Power == nil {
		return nil, fmt.Errorf("rtma: radio model not fully specified")
	}
	r := &RTMA{budget: cfg.Budget}
	r.order.limit = -1 // the default churn threshold (rtmaOrder)
	r.threshold, r.admitAll = solveThreshold(cfg)
	return r, nil
}

// slotEnergyAt evaluates the Eq. (12) right-hand side at signal sig for a
// 1-second slot: ½(P(sig)·v(sig) + P_tail). The slot length τ cancels when
// the budget Φ is also expressed per slot of the same length, so the
// threshold is τ-independent.
//
// P_tail is taken as the mean power over one complete RRC tail,
// MaxTailEnergy/(T1+T2). The paper leaves P_tail unspecified; using the
// DCH power Pd instead would push the Eq. (12) band so high that any
// budget below ½(P(−50)·v(−50)+Pd) ≈ 789 mJ — including α = 0.8 of a
// typical measured default energy — would admit no user at all, which
// contradicts the α-sweep behaviour of Fig. 4. The tail-average keeps the
// same mechanism with a usable band (see DESIGN.md, Design choices).
func slotEnergyAt(cfg RTMAConfig, sig units.DBm) float64 {
	p := float64(cfg.Radio.Power.EnergyPerKB(sig))
	v := float64(cfg.Radio.Throughput.Throughput(sig))
	return 0.5 * (p*v + tailMeanPower(cfg.RRC))
}

// tailMeanPower returns the average power of one full RRC tail in mW.
func tailMeanPower(p rrc.Profile) float64 {
	span := float64(p.T1 + p.T2)
	if span <= 0 {
		return float64(p.Pd)
	}
	return float64(p.MaxTailEnergy()) / span
}

// solveThreshold finds the weakest signal φ with slotEnergyAt(φ) ≤ Φ by
// bisection over the paper's signal range, signal.DefaultBounds.
// slotEnergyAt is monotonically non-increasing in sig for the paper's
// models (weak signal ⇒ expensive reception). Returns admitAll when even
// the weakest signal fits the budget, and φ just above the strongest
// (admit none) when even the strongest signal exceeds it.
func solveThreshold(cfg RTMAConfig) (units.DBm, bool) {
	budget := float64(cfg.Budget)
	lo, hi := signal.DefaultBounds.Min, signal.DefaultBounds.Max
	if slotEnergyAt(cfg, lo) <= budget {
		return lo, true
	}
	if slotEnergyAt(cfg, hi) > budget {
		// Even the best channel busts the budget: admit nobody. Encode as
		// a threshold above the physical range.
		return hi + 1, false
	}
	for i := 0; i < 64 && float64(hi-lo) > 1e-9; i++ {
		mid := (lo + hi) / 2
		if slotEnergyAt(cfg, mid) <= budget {
			hi = mid // mid satisfies the budget; weakest satisfying sig is ≤ mid
		} else {
			lo = mid
		}
	}
	return hi, false
}

// Threshold returns the derived admission threshold φ.
func (r *RTMA) Threshold() units.DBm { return r.threshold }

// Name implements Scheduler.
func (*RTMA) Name() string { return "RTMA" }

// Allocate implements Scheduler following Alg. 1.
func (r *RTMA) Allocate(slot *Slot, alloc []int) {
	// Step 2: candidates by required data rate ascending. Keys and needs
	// are collected in user-index order once per slot; the persistent
	// sorted order is then repaired against them (order.go) so slots with
	// little rate/admission churn skip the full sort entirely.
	r.keys = r.keys[:0]
	r.zero = r.zero[:0]
	for _, i := range slot.activeIndices(&r.act) {
		if slot.MaxUnitsAt(i) == 0 {
			continue
		}
		// Step 6: admission by signal-strength limitation φ.
		if !r.admitAll && slot.sigAt(i) < r.threshold {
			continue
		}
		need := slot.needUnitsAt(i)
		if need == 0 {
			// A zero-rate user has no per-slot playback need; it only
			// soaks up capacity the needy users leave behind (the drain
			// below), a whole link's worth in one grant instead of one
			// unit per round.
			r.zero = append(r.zero, i)
			continue
		}
		r.keys = append(r.keys, rtmaKey{rate: slot.RateAt(i), idx: int32(i), need: int32(need)})
	}
	sorted := r.order.update(r.keys)

	remaining := slot.CapacityUnits
	// Steps 4–15: the water-filling rounds (rtma_kernel.go). Each
	// candidate's mutable state is banked into its work item — got seeds
	// from the caller's alloc and max caches the link bound — so the
	// rounds run over a compact struct slice with no indexed loads, and
	// the final grants scatter into alloc once. The kernel compacts its
	// own window, so it runs on a scratch copy — the persistent sorted
	// order must survive intact for the next slot's incremental repair.
	r.work = r.work[:0]
	for _, k := range sorted {
		i := int(k.idx)
		r.work = append(r.work, rtmaWork{
			idx: k.idx, need: k.need,
			got: int32(alloc[i]), max: int32(slot.MaxUnitsAt(i)),
		})
	}
	// The pointer window is built only after work stops growing (appends
	// may move the backing array).
	r.liveWork = r.liveWork[:0]
	for j := range r.work {
		r.liveWork = append(r.liveWork, &r.work[j])
	}
	remaining = waterfillRounds(r.liveWork, remaining)
	for _, k := range r.work {
		alloc[k.idx] = int(k.got)
	}
	// Spare-capacity drain: zero-need users absorb whatever the needy
	// ones left, in index order.
	for _, i := range r.zero {
		if remaining == 0 {
			break
		}
		grant := slot.MaxUnitsAt(i)
		if grant > remaining {
			grant = remaining
		}
		alloc[i] = grant
		remaining -= grant
	}
}

var _ Scheduler = (*RTMA)(nil)

// BudgetForAlpha is a convenience for the paper's Φ = α·E_Default setup:
// it scales a measured default per-user per-slot energy by α.
func BudgetForAlpha(defaultEnergy units.MJ, alpha float64) (units.MJ, error) {
	if defaultEnergy <= 0 {
		return 0, fmt.Errorf("rtma: non-positive default energy %v", defaultEnergy)
	}
	if alpha <= 0 || math.IsNaN(alpha) || math.IsInf(alpha, 0) {
		return 0, fmt.Errorf("rtma: invalid alpha %v", alpha)
	}
	return units.MJ(float64(defaultEnergy) * alpha), nil
}
