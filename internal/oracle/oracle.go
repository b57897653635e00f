// Package oracle computes offline bounds on the energy-minimization
// problem of the paper's Theorem 1. The Lyapunov bound PE∞ ≤ E* + B/V is
// stated against E*, the minimum achievable average energy of any policy;
// E* is unobservable online, but an offline relaxation gives a certified
// lower bound:
//
//   - drop the base-station capacity coupling (Eq. 2) and the rebuffering
//     constraint, keeping only the per-user link caps (Eq. 1);
//   - then each user independently buys its video's bytes at its
//     cheapest-priced slots over the horizon. Tail energy is ignored by
//     the lower bound — tails are non-negative, so it remains a valid
//     lower bound on total (transmission + tail) energy too.
//
// Every feasible schedule pays at least this much transmission energy, so
// the bound certifies how close EMA gets to optimal (the "oracle gap"
// reported by the experiment harness extension).
//
// The package also provides an omniscient heuristic *upper* bound: a
// future-aware schedule that respects Eq. (1)+(2) by buying globally
// cheapest (user, slot) units first. Between the two brackets lies E*.
// By default the upper bound counts transmission energy only; setting
// Config.AccountTail replays the greedy plan through the Eq. (4) RRC
// tail physics so UpperMJ is directly comparable to the engine's total
// Result energy.
//
// Finally, Bounds.WorstMJ is the adversarial end of the bracket: a
// certified upper bound on the total energy of ANY feasible schedule
// (every deliverable byte priced at the user's worst feasible slot,
// plus a full-horizon worst-case tail). Together with the per-run lower
// bound of LowerBoundDelivered this yields the dominance invariant the
// property suite asserts for every scheduler S:
//
//	LowerBoundDelivered(run) ≤ trans(S) ≤ total(S) ≤ WorstMJ
//
// Prices are derived from each session's signal and the radio model,
// through the radio.Link evaluator the engines derive with; setting
// Config.Link reads the signals from the compiled link table's slot-major
// rows instead of the traces, which is bitwise-identical.
package oracle

import (
	"fmt"
	"sort"

	"jointstream/internal/radio"
	"jointstream/internal/rrc"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// LinkView is the slice of cell.LinkTable the oracle can read signals
// from instead of the sessions' traces: zero-copy slot-major signal
// columns. cell.LinkTable satisfies it; the indirection keeps this package
// free of an engine dependency.
type LinkView interface {
	Users() int
	Slots() int
	SlotSignals(n int) []units.DBm
}

// Config parameterizes the offline computation.
type Config struct {
	// Tau is the slot length.
	Tau units.Seconds
	// Unit is the data-unit size δ (KB).
	Unit units.KB
	// Capacity is the base-station budget S (KB/s); used only by the
	// upper bound.
	Capacity units.KBps
	// Horizon is the number of slots considered.
	Horizon int
	// Radio supplies v(sig) and P(sig).
	Radio radio.Model
	// RRC supplies the Eq. (4) tail physics for AccountTail and for the
	// tail term of WorstMJ. The zero profile burns nothing, so callers
	// that only want transmission bounds may leave it unset.
	RRC rrc.Profile
	// AccountTail, when set, adds the omniscient plan's replayed RRC
	// tail energy to UpperMJ (and reports it in Bounds.TailMJ), making
	// the bracket comparable to the engine's total Result energy. The
	// default preserves the legacy transmission-only upper bound.
	AccountTail bool
	// Link, when non-nil, supplies the signals from the compiled table's
	// slot-major rows instead of Signal.At. It must cover the sessions and
	// horizon; prices and limits are derived under Radio, Tau and Unit.
	Link LinkView
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Tau <= 0 || c.Unit <= 0 || c.Horizon <= 0 {
		return fmt.Errorf("oracle: non-positive tau/unit/horizon (%v/%v/%d)", c.Tau, c.Unit, c.Horizon)
	}
	if c.Capacity <= 0 {
		return fmt.Errorf("oracle: non-positive capacity %v", c.Capacity)
	}
	if c.Radio.Throughput == nil || c.Radio.Power == nil {
		return fmt.Errorf("oracle: radio model not fully specified")
	}
	if c.AccountTail {
		if err := c.RRC.Validate(); err != nil {
			return err
		}
	}
	if c.Link != nil {
		if c.Link.Slots() < c.Horizon {
			return fmt.Errorf("oracle: link view covers %d slots, horizon needs %d", c.Link.Slots(), c.Horizon)
		}
	}
	return nil
}

// Bounds brackets the offline-optimal energy, and — through WorstMJ —
// the energy of every feasible schedule.
type Bounds struct {
	// LowerMJ is the capacity-relaxed per-user-independent optimum: no
	// feasible schedule delivering every byte can spend less
	// transmission energy.
	LowerMJ units.MJ
	// UpperMJ is the energy of the omniscient greedy schedule, which is
	// feasible under Eq. (1)+(2); the true offline optimum E* lies in
	// [LowerMJ, UpperMJ]. Transmission-only by default; with
	// Config.AccountTail it includes the plan's replayed tail energy.
	UpperMJ units.MJ
	// TailMJ is the RRC tail energy of the omniscient plan, included in
	// UpperMJ; zero unless Config.AccountTail is set.
	TailMJ units.MJ
	// WorstMJ is the adversarial certificate: no feasible schedule —
	// omniscient or otherwise — can spend more total energy than this
	// (worst-price delivery of every deliverable byte plus a
	// max-power tail burned every slot by every user). Deliberately
	// loose; its job is to close the dominance bracket, not to be
	// tight.
	WorstMJ units.MJ
	// Feasible reports whether the omniscient schedule managed to deliver
	// every byte within the horizon; if false, UpperMJ covers only the
	// delivered portion and the horizon should be extended.
	Feasible bool
}

// slotPrice is one (user, slot) opportunity.
type slotPrice struct {
	user    int
	slot    int
	price   float64 // mJ/KB
	maxUnit int     // Eq. (1) cap in units
}

// Plan is the omniscient greedy schedule behind the upper bound:
// Alloc[n][u] is the data-unit grant of user u in slot n. Feeding it back
// through the real simulator (sched.NewPlanned) measures what the
// clairvoyant energy plan does to playback — it ignores buffer dynamics
// entirely, so its rebuffering can be arbitrarily bad.
type Plan struct {
	Alloc  [][]int
	Bounds Bounds
}

// ComputePlan evaluates the bounds and returns the upper bound's schedule.
func ComputePlan(cfg Config, sessions []*workload.Session) (*Plan, error) {
	b, alloc, err := compute(cfg, sessions, true)
	if err != nil {
		return nil, err
	}
	return &Plan{Alloc: alloc, Bounds: b}, nil
}

// Compute evaluates both bounds for the given sessions.
func Compute(cfg Config, sessions []*workload.Session) (Bounds, error) {
	b, _, err := compute(cfg, sessions, false)
	return b, err
}

func compute(cfg Config, sessions []*workload.Session, wantPlan bool) (Bounds, [][]int, error) {
	prices, err := buildPrices(cfg, sessions)
	if err != nil {
		return Bounds{}, nil, err
	}

	demand := make([]float64, len(sessions))
	for ui, s := range sessions {
		demand[ui] = float64(s.Size)
	}
	lower, err := lowerFill(cfg, prices, demand)
	if err != nil {
		return Bounds{}, nil, err
	}
	// The tail replay needs the plan even when the caller doesn't.
	upper, feasible, alloc := upperBound(cfg, sessions, prices, wantPlan || cfg.AccountTail)
	b := Bounds{
		LowerMJ:  lower,
		UpperMJ:  upper,
		WorstMJ:  worstBound(cfg, sessions, prices),
		Feasible: feasible,
	}
	if cfg.AccountTail {
		b.TailMJ = planTail(cfg, alloc, len(sessions))
		b.UpperMJ += b.TailMJ
	}
	if !wantPlan {
		alloc = nil
	}
	return b, alloc, nil
}

// buildPrices precomputes the (user, slot) opportunities: per-KB price
// and Eq. (1) cap for every slot from the session's start with a
// nonzero link, derived from the signal — the compiled link view's or
// the trace's — through the radio model.
func buildPrices(cfg Config, sessions []*workload.Session) ([][]slotPrice, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(sessions) == 0 {
		return nil, fmt.Errorf("oracle: no sessions")
	}
	if cfg.Link != nil && cfg.Link.Users() != len(sessions) {
		return nil, fmt.Errorf("oracle: link view compiled for %d users, run has %d", cfg.Link.Users(), len(sessions))
	}
	link, err := radio.NewLink(cfg.Radio, cfg.Tau, cfg.Unit)
	if err != nil {
		return nil, err
	}
	prices := make([][]slotPrice, len(sessions))
	for ui, s := range sessions {
		prices[ui] = make([]slotPrice, 0, cfg.Horizon)
		for n := s.StartSlot; n < cfg.Horizon; n++ {
			var sig units.DBm
			if cfg.Link != nil {
				sig = cfg.Link.SlotSignals(n)[ui]
			} else {
				sig = s.Signal.At(n)
			}
			_, price, maxUnits := link.At(sig)
			if maxUnits == 0 {
				continue
			}
			prices[ui] = append(prices[ui], slotPrice{
				user:    ui,
				slot:    n,
				price:   float64(price),
				maxUnit: maxUnits,
			})
		}
	}
	return prices, nil
}

// LowerBoundDelivered is the per-run certificate: the minimum
// transmission energy ANY schedule respecting Eq. (1) must pay to
// deliver the given per-user byte counts — the capacity-relaxed
// cheapest-slot fill, but for what a finished run actually delivered
// rather than the full video sizes. Every run's measured transmission
// energy (and a fortiori its total energy) dominates it, whether or not
// the run completed delivery.
func LowerBoundDelivered(cfg Config, sessions []*workload.Session, delivered []units.KB) (units.MJ, error) {
	if len(delivered) != len(sessions) {
		return 0, fmt.Errorf("oracle: %d delivered totals for %d sessions", len(delivered), len(sessions))
	}
	prices, err := buildPrices(cfg, sessions)
	if err != nil {
		return 0, err
	}
	demand := make([]float64, len(delivered))
	for ui, kb := range delivered {
		if kb < 0 {
			return 0, fmt.Errorf("oracle: user %d negative delivered %v", ui, kb)
		}
		demand[ui] = float64(kb)
	}
	return lowerFill(cfg, prices, demand)
}

// lowerFill relaxes Eq. (2): each user fills its demand (KB) from its
// own cheapest slots.
func lowerFill(cfg Config, prices [][]slotPrice, demand []float64) (units.MJ, error) {
	var total float64
	for ui := range prices {
		own := make([]slotPrice, len(prices[ui]))
		copy(own, prices[ui])
		sort.Slice(own, func(a, b int) bool { return own[a].price < own[b].price })
		remaining := demand[ui]
		for _, sp := range own {
			if remaining <= 0 {
				break
			}
			kb := float64(sp.maxUnit) * float64(cfg.Unit)
			if kb > remaining {
				kb = remaining
			}
			total += kb * sp.price
			remaining -= kb
		}
		if remaining > 0 {
			return 0, fmt.Errorf("oracle: user %d cannot deliver %.0f KB within horizon %d even uncapacitated",
				ui, remaining, cfg.Horizon)
		}
	}
	return units.MJ(total), nil
}

// upperBound buys globally cheapest units first while honouring per-slot
// capacity, yielding a feasible (future-aware) schedule. When wantPlan is
// set, the per-slot per-user unit grants are also returned.
func upperBound(cfg Config, sessions []*workload.Session, prices [][]slotPrice, wantPlan bool) (units.MJ, bool, [][]int) {
	all := make([]slotPrice, 0, 1024)
	for ui := range prices {
		all = append(all, prices[ui]...)
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].price != all[b].price {
			return all[a].price < all[b].price
		}
		if all[a].slot != all[b].slot {
			return all[a].slot < all[b].slot
		}
		return all[a].user < all[b].user
	})
	capPerSlot := int(float64(cfg.Capacity) * float64(cfg.Tau) / float64(cfg.Unit))
	slotUsed := make([]int, cfg.Horizon)
	remaining := make([]float64, len(sessions))
	for ui, s := range sessions {
		remaining[ui] = float64(s.Size)
	}
	var plan [][]int
	if wantPlan {
		plan = make([][]int, cfg.Horizon)
		for n := range plan {
			plan[n] = make([]int, len(sessions))
		}
	}
	var total float64
	for _, sp := range all {
		if remaining[sp.user] <= 0 {
			continue
		}
		free := capPerSlot - slotUsed[sp.slot]
		if free <= 0 {
			continue
		}
		unitsGranted := sp.maxUnit
		if unitsGranted > free {
			unitsGranted = free
		}
		kb := float64(unitsGranted) * float64(cfg.Unit)
		if kb > remaining[sp.user] {
			kb = remaining[sp.user]
			unitsGranted = int((kb + float64(cfg.Unit) - 1) / float64(cfg.Unit))
		}
		total += kb * sp.price
		remaining[sp.user] -= kb
		slotUsed[sp.slot] += unitsGranted
		if wantPlan {
			plan[sp.slot][sp.user] += unitsGranted
		}
	}
	feasible := true
	for _, r := range remaining {
		if r > 0 {
			feasible = false
			break
		}
	}
	return units.MJ(total), feasible, plan
}

// planTail replays a plan's per-user transfer pattern through the
// Eq. (4) tail physics exactly as the engine's commit phase would: an
// idle slot after the first transfer burns E(gap+τ) − E(gap) and ages
// the gap; a transfer resets it. Accrual runs to the horizon edge, not
// just to each user's last transfer: the engine keeps a user's radio
// state alive until playback completes — which trails delivery by at
// least the buffered content — so the post-transfer drain reaches the
// Result too. The increments self-cap at zero once the gap passes
// T1+T2, so the trailing term never exceeds one MaxTailEnergy per user.
func planTail(cfg Config, plan [][]int, users int) units.MJ {
	var total units.MJ
	for u := 0; u < users; u++ {
		first := -1
		for n := range plan {
			if plan[n][u] > 0 {
				first = n
				break
			}
		}
		if first < 0 {
			continue
		}
		var gap units.Seconds
		for n := first + 1; n < len(plan); n++ {
			if plan[n][u] > 0 {
				gap = 0
				continue
			}
			total += cfg.RRC.TailIncrement(gap, cfg.Tau)
			gap += cfg.Tau
		}
	}
	return total
}

// worstBound certifies the adversarial end of the bracket: a feasible
// schedule can deliver at most min(size, what the link ever carries)
// KB per user, each priced at worst at that user's most expensive
// feasible slot, and a radio can burn at most max(Pd, Pf)·τ of tail per
// slot (the per-slot Eq. (4) increment is an integral of instantaneous
// tail power, which never exceeds the hotter state's). Both ceilings
// are loose by design; nothing feasible can cross them.
func worstBound(cfg Config, sessions []*workload.Session, prices [][]slotPrice) units.MJ {
	var total float64
	for ui, s := range sessions {
		var maxPrice, deliverable float64
		for _, sp := range prices[ui] {
			if sp.price > maxPrice {
				maxPrice = sp.price
			}
			deliverable += float64(sp.maxUnit) * float64(cfg.Unit)
		}
		kb := float64(s.Size)
		if kb > deliverable {
			kb = deliverable
		}
		total += kb * maxPrice
	}
	tailPower := cfg.RRC.Pd
	if cfg.RRC.Pf > tailPower {
		tailPower = cfg.RRC.Pf
	}
	total += float64(len(sessions)) * float64(cfg.Horizon) * float64(tailPower.Energy(cfg.Tau))
	return units.MJ(total)
}
