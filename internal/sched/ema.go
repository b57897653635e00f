package sched

import (
	"fmt"
	"math"

	"jointstream/internal/rrc"
	"jointstream/internal/units"
)

// EMA is the paper's Energy Minimization Algorithm (Alg. 2).
//
// Goal (Eq. 14): minimize the average energy PE(Γ) subject to Eq. (1),
// Eq. (2) and the average rebuffering bound PC(Γ) ≤ Ω (Eq. 13). EMA keeps
// one virtual rebuffering queue per user (Eq. 16),
//
//	PC_i(n+1) = PC_i(n) + τ − t_i(n),  t_i(n) = d_i(n)/p_i(n)
//
// whose positive part accumulates rebuffering pressure and whose negative
// part measures buffered headroom. Each slot it minimizes the Lyapunov
// drift-plus-penalty bound (Eq. 21–22),
//
//	min Σ_i f(i, ϕ_i) ,  f(i, ϕ) = V·E_i(n, ϕ) + PC_i(n)·(τ − ϕδ/p_i)
//
// over the separable capacity constraint Σϕ_i ≤ ⌊τS/δ⌋. E_i(n, ϕ) follows
// Eq. (5): transmission energy P(sig)·ϕδ when ϕ > 0, otherwise the tail
// energy the radio would burn idling through this slot.
//
// The per-slot subproblem is the multi-choice knapsack of Alg. 2. Because
// f(i, ϕ) is affine in ϕ for ϕ ≥ 1 (only the ϕ = 0 tail branch breaks the
// line), a user can want only nothing, the one unit that dodges the tail,
// or everything its link carries. The default solver runDP therefore does
// work only where the optimal path can cross: each user's grant is bounded
// — above by that want; below by its need when the wants fit in the cell;
// on both sides, when the needs overrun the cell, by the threshold of unit
// costs the cheapest capacity units fall under, which pins all but the
// users at the margin — every row is filled only on the band those bounds
// leave, the forward passes (ema_kernel.go) keep values only, and the
// grants are recovered at backtrack by rescanning the free users'
// predecessors of the ≤ users states on the optimal path — see runDP's
// comment for the lemmas and DESIGN.md §4, "Fast EMA DP". The
// paper-literal O(users × capacity²) DP is kept as runDPRef, exposed
// through AllocateRef; an unclipped monotone-deque DP in this package's
// tests is the tie-exact oracle. The arms are differentially tested
// (internal/simtest, TestEMAFastMatchesRef; sched's
// TestEMABlockMatchesDeque, TestEMAKernelLines, TestEMABandLemma,
// TestEMAThresholdLemma, FuzzEMAKernel) so the fast path is pinned both
// in objective and bit for bit in allocation.
//
// The weight V trades energy against rebuffering: Theorem 1 bounds
// PE ≤ E* + B/V and PC ≤ (B + V·E*)/ε, so larger V saves more energy at
// the cost of a longer (but still bounded) rebuffering backlog. The
// experiment harness calibrates V so the measured PC meets the paper's
// Ω = β·R_Default target.
type EMA struct {
	v   float64 // Lyapunov penalty weight V
	rrc rrc.Profile

	queues []units.Seconds // PC_i virtual queues, grown on demand

	// tailDrained caches rrc.TailDrainedAfter so the common "tail long
	// gone" skip cost is a single compare. tailVals/tailKeys memoize the
	// nonzero E(gap+τ)−E(gap) increments, which repeat across slots
	// because gaps advance in multiples of τ: entry k serves
	// gap ≈ k·τ, with the exact gap stored in tailKeys so a rounding
	// collision recomputes instead of returning a neighbor's value. The
	// memo stays bounded: only gaps inside the tail window are inserted,
	// and the index is capped at maxTailMemo. tailTau is the τ the table
	// was built for; a different τ flushes it.
	tailDrained units.Seconds
	tailVals    []float64
	tailKeys    []units.Seconds
	tailTau     units.Seconds

	// DP scratch, reused across slots.
	rows    []float64  // (users+1) × (capacity+1): row k, state M = best objective of the first k DP users at exactly M units, current on the slot's band [lo_k, hi_k] only, for the rows the passes reach
	suf     []float64  // windowed pass: block suffix minima of g
	runs    []unitRun  // contended slot: the DP users' units by marginal cost
	lines   []userLine // this slot's cost lines, one per DP user
	dpUser  []int      // indices of users participating in the DP
	dpBound int        // active-count bound for scratch growth this slot
	act     []int      // activeIndices fallback scratch

	dpStates int // band states runDP's passes have filled, one add per pass run
}

// maxTailMemo bounds the tail-increment memo: gaps beyond this many slot
// widths are computed directly (they are rare — the drained short-circuit
// already serves long-idle users).
const maxTailMemo = 4096

// EMAConfig configures EMA.
type EMAConfig struct {
	// V is the Lyapunov penalty weight; larger V favors energy saving.
	V float64
	// RRC supplies the tail-energy model for the cost of skipping a slot.
	RRC rrc.Profile
}

// NewEMA validates the configuration and returns the scheduler.
func NewEMA(cfg EMAConfig) (*EMA, error) {
	if cfg.V <= 0 || math.IsNaN(cfg.V) || math.IsInf(cfg.V, 0) {
		return nil, fmt.Errorf("ema: invalid V %v", cfg.V)
	}
	if err := cfg.RRC.Validate(); err != nil {
		return nil, err
	}
	return &EMA{v: cfg.V, rrc: cfg.RRC, tailDrained: cfg.RRC.TailDrainedAfter()}, nil
}

// Name implements Scheduler.
func (*EMA) Name() string { return "EMA" }

// V returns the Lyapunov weight.
func (e *EMA) V() float64 { return e.v }

// The range CalibrateV searches: V = 0.005 already weighs rebuffering over
// energy at the paper's scales, and V = 16 defers data until PC is large.
const calibrateVMin, calibrateVMax float64 = 0.005, 16

// CalibrateV searches [0.005, 16] for the largest V whose measured average
// rebuffering pcAt(V) stays within omega, by bisection on log V: the two
// ends, then steps geometric midpoints. It returns the low end if that
// misses omega (EMA has no more rebuffering-averse setting), the high end
// if that meets it, and otherwise the last midpoint that met omega (the
// low end if none did). The bisection assumes PC(V) is about
// non-decreasing in V (more energy bias defers more data, as the Theorem-1
// bound PC ≤ (B + V·E*)/ε reflects), but a measured PC is not strictly so:
// at seed 42, 30 users and 350 MB, V 0.01209 → 0.01228 lowers PC from
// 0.008121 to 0.008098 s. So the answer need not be the largest V within
// omega, and the two end probes stay.
func CalibrateV(steps int, omega units.Seconds, pcAt func(v float64) (units.Seconds, error)) (float64, error) {
	lo, hi := calibrateVMin, calibrateVMax
	pcLo, err := pcAt(lo)
	if err != nil {
		return 0, err
	}
	if pcLo > omega {
		return lo, nil
	}
	pcHi, err := pcAt(hi)
	if err != nil {
		return 0, err
	}
	if pcHi <= omega {
		return hi, nil
	}
	for i := 0; i < steps; i++ {
		mid := math.Sqrt(lo * hi)
		pc, err := pcAt(mid)
		if err != nil {
			return 0, err
		}
		if pc <= omega {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// RRC returns the tail-energy profile the skip cost is priced with.
// internal/simtest uses it to recompute the Eq. (21–22) objective from
// public state when differentially testing the DP fast path.
func (e *EMA) RRC() rrc.Profile { return e.rrc }

// Queue returns the current virtual queue PC_i for user i (0 for users
// never seen). Exposed for tests.
func (e *EMA) Queue(i int) units.Seconds {
	if i < 0 || i >= len(e.queues) {
		return 0
	}
	return e.queues[i]
}

// SetQueue overrides the virtual queue PC_i for user i, growing the queue
// vector as needed. It exists for test harnesses (internal/simtest, the
// fuzz targets) that need to place the scheduler in an arbitrary queue
// state before a differential step; production callers never need it.
func (e *EMA) SetQueue(i int, q units.Seconds) {
	if i < 0 {
		return
	}
	e.ensureQueues(i + 1)
	e.queues[i] = q
}

// ResetRow and MoveRow implement RowState: a new row's queue is empty.
func (e *EMA) ResetRow(i int)       { resetRow(e.queues, i, 0) }
func (e *EMA) MoveRow(from, to int) { moveRow(e.queues, from, to, 0) }

// ensureQueues grows the queue vector to cover n users.
func (e *EMA) ensureQueues(n int) {
	for len(e.queues) < n {
		e.queues = append(e.queues, 0)
	}
}

// tailIncrement returns E_tail(gap+τ) − E_tail(gap), memoized. Gaps at or
// beyond the drained point short-circuit to zero without touching the
// memo, which both serves the common long-idle case and bounds the memo
// to the O(T1+T2 / τ) distinct in-tail gaps. The memo is a slice indexed
// by round(gap/τ) — gaps advance in multiples of τ, so the index is
// exact in practice; the stored key makes a collision recompute rather
// than mis-serve.
func (e *EMA) tailIncrement(gap, tau units.Seconds) float64 {
	if gap >= e.tailDrained {
		return 0
	}
	if tau <= 0 {
		return float64(e.rrc.TailIncrement(gap, tau))
	}
	if tau != e.tailTau {
		e.tailTau = tau
		for i := range e.tailKeys {
			e.tailKeys[i] = -1
		}
	}
	k := int(float64(gap)/float64(tau) + 0.5)
	if k < 0 || k >= maxTailMemo {
		return float64(e.rrc.TailIncrement(gap, tau))
	}
	for len(e.tailKeys) <= k {
		e.tailKeys = append(e.tailKeys, -1)
		e.tailVals = append(e.tailVals, 0)
	}
	if e.tailKeys[k] == gap {
		return e.tailVals[k]
	}
	v := float64(e.rrc.TailIncrement(gap, tau))
	e.tailKeys[k] = gap
	e.tailVals[k] = v
	return v
}

// slotCost evaluates f(i, ϕ) for the user at slot index i.
func (e *EMA) slotCost(slot *Slot, i, phi int) float64 {
	var energy float64
	if phi > 0 {
		energy = float64(slot.EnergyPerKBAt(i)) * float64(phi) * float64(slot.Unit)
	} else if !slot.NeverActiveAt(i) {
		// Tail energy the radio burns idling through this slot (Eq. 4,
		// incremental form).
		energy = e.tailIncrement(slot.TailGapAt(i), slot.Tau)
	}
	t := 0.0
	if phi > 0 {
		t = float64(phi) * float64(slot.Unit) / float64(slot.RateAt(i))
	}
	return e.v*energy + float64(e.queues[i])*(float64(slot.Tau)-t)
}

// Allocate implements Scheduler following Alg. 2, solving the per-slot
// subproblem exactly with the want-clipped, banded, value-only DP (runDP).
func (e *EMA) Allocate(slot *Slot, alloc []int) {
	e.allocate(slot, alloc, (*EMA).runDP)
}

// AllocateRef is Allocate with the paper-literal quadratic DP (runDPRef)
// in place of the fast path. It exists as the reference arm of the
// differential tests and fuzz targets in internal/simtest; both paths
// must produce allocations with identical objective value.
func (e *EMA) AllocateRef(slot *Slot, alloc []int) {
	e.allocate(slot, alloc, (*EMA).runDPRef)
}

// allocate runs one slot of Alg. 2 with dp as the subproblem solver: dp
// receives one cost line per DP user and writes alloc[e.dpUser[k]] for
// line k.
func (e *EMA) allocate(slot *Slot, alloc []int, dp func(e *EMA, lines []userLine, capacity int, alloc []int)) {
	e.ensureQueues(slot.NumUsers())

	// Active users with a positive link bound participate in the DP;
	// everyone else necessarily gets ϕ = 0 and only contributes a constant
	// to the objective, which cannot change the argmin.
	active := slot.activeIndices(&e.act)
	// The DP participant count fluctuates slot to slot; bound the scratch
	// by the active count so a later, busier slot never allocates mid-run.
	e.dpBound = len(active)
	if cap(e.dpUser) < len(active) {
		e.dpUser = make([]int, 0, len(active))
		e.lines = make([]userLine, 0, len(active))
	}
	e.dpUser = e.dpUser[:0]
	for _, i := range active {
		if slot.MaxUnitsAt(i) > 0 && slot.RateAt(i) > 0 {
			e.dpUser = append(e.dpUser, i)
		}
	}

	capacity := slot.CapacityUnits
	if len(e.dpUser) > 0 && capacity > 0 {
		e.lines = e.lines[:0]
		for _, i := range e.dpUser {
			e.lines = append(e.lines, e.line(slot, i, capacity))
		}
		dp(e, e.lines, capacity, alloc)
	}

	// Eq. (16): advance every active user's virtual queue using the slot's
	// final decision. Inactive users keep their queue frozen.
	for _, i := range active {
		t := 0.0
		if alloc[i] > 0 {
			t = float64(alloc[i]) * float64(slot.Unit) / float64(slot.RateAt(i))
		}
		e.queues[i] += units.Seconds(float64(slot.Tau) - t)
	}
}

// userLine holds the affine decomposition of f(i, ϕ) for one DP user:
// f(i, 0) = skip, and f(i, ϕ) = base + perUnit·ϕ for ϕ ≥ 1 up to maxPhi.
// want ≤ maxPhi is the widest grant the want-clip leaves and
// least ≤ ϕ ≤ most the grants runDP considers (all three set by runDP; the
// unclipped reference solvers ignore them).
type userLine struct {
	skip, base, perUnit float64
	maxPhi, want        int
	least, most         int
}

// line decomposes user idx's slot cost for the DP solvers.
func (e *EMA) line(slot *Slot, idx, capacity int) userLine {
	maxPhi := slot.MaxUnitsAt(idx)
	if maxPhi > capacity {
		maxPhi = capacity
	}
	q := float64(e.queues[idx])
	return userLine{
		skip: e.slotCost(slot, idx, 0),
		base: q * float64(slot.Tau),
		perUnit: e.v*float64(slot.EnergyPerKBAt(idx))*float64(slot.Unit) -
			q*float64(slot.Unit)/float64(slot.RateAt(idx)),
		maxPhi: maxPhi,
	}
}

// clip returns the user's want: the smallest w ∈ {0, 1, maxPhi} such that
// every ϕ > w costs more than some ϕ' ≤ w by a margin above guard. With
// perUnit ≥ 0 the line rises from ϕ = 1, so the user wants at most the one
// unit that dodges Eq. 4's tail (nothing if even that unit costs more than
// skipping); with perUnit < 0 it falls, so the user wants all of maxPhi or,
// if even that costs more than skipping, nothing. A margin inside the guard
// (or a NaN) keeps the full window.
func (l *userLine) clip(guard float64) int {
	if l.perUnit >= 0 {
		if l.base+l.perUnit-l.skip > guard {
			return 0
		}
		if l.perUnit > guard {
			return 1
		}
	} else if l.base+l.perUnit*float64(l.maxPhi)-l.skip > guard {
		return 0
	}
	return l.maxPhi
}

// floor returns the user's need: the largest w ∈ {0, 1, maxPhi} such that
// each of the units 1 … w, added to an allocation with capacity to spare,
// lowers the exact objective by more than guard — the first if it beats
// skipping by that margin, the rest if the line falls by more than guard a
// unit. A margin inside the guard (or a NaN) gives 0, and floor ≤ clip.
func (l *userLine) floor(guard float64) int {
	if !(l.skip-(l.base+l.perUnit) > guard) {
		return 0
	}
	if l.perUnit >= 0 || -l.perUnit <= guard {
		return 1
	}
	return l.maxPhi
}

// clipGuard returns the objective margin that survives the DP's rounding.
// A DP value is the float evaluation of one allocation's Σ f, built row by
// row from five rounded operations on intermediates no larger than
// scale = Σ (|skip| + |base| + 2·|perUnit|·capacity), so it lies within
// 3·2⁻⁵³·n·scale of the exact sum (perUnit·j cannot underflow inexactly, j
// being an integer). Two allocations whose exact objectives differ by more
// than twice that compare the same way as floats; 2⁻⁴⁷·n·scale is 64 ×
// the bound, which also covers the rounding of scale and of the margins
// clip computes.
func clipGuard(lines []userLine, capacity int) float64 {
	var scale float64
	for i := range lines {
		l := &lines[i]
		scale += math.Abs(l.skip) + math.Abs(l.base) + 2*math.Abs(l.perUnit)*float64(capacity)
	}
	return 0x1p-47 * float64(len(lines)) * scale
}

// runDP solves min Σ f(i, ϕ_i) s.t. Σϕ_i ≤ capacity exactly and writes the
// allocation Alg. 2's table DP returns: among the optimal ones the one
// using the fewest units, and the smallest ϕ at every in-row tie.
//
// For each user the transition is
//
//	next[m] = min( cost[m] + skip,
//	               min_{1 ≤ ϕ ≤ min(maxPhi, m)} cost[m−ϕ] + base + perUnit·ϕ )
//
// and substituting j = m−ϕ turns the inner min into
//
//	base + perUnit·m + min_{j ∈ [m−maxPhi, m−1]} (cost[j] − perUnit·j),
//
// a sliding-window minimum over g[j] = cost[j] − perUnit·j, largest j
// (smallest ϕ) on ties in g. Unclipped that is users × capacity window
// queries with an argmin each. runDP bounds every user's grant — by its
// want, by its need where capacity is slack, by the threshold of unit costs
// where it is contended — fills each row only on the band those bounds
// leave, keeps values only, and recovers the grants at backtrack.
//
// Want-clip. The window is want_i = clip(guard) wide instead of maxPhi,
// and the reachable states end at Σ want_i instead of Σ maxPhi. Lemma: the
// allocation the unclipped DP returns has ϕ_i ≤ want_i for every i. If
// some ϕ_i > want_i, lower it to the ϕ' ≤ want_i of clip's definition: the
// allocation stays feasible, uses fewer units, and its exact objective
// falls by more than guard. A final-row value is the float evaluation of
// its own argmin path, is no larger than the float evaluation of any
// other path ending at that state (rounded + and − are monotone), and is
// within guard/2 of the exact sum (clipGuard) — so the value at the
// lowered total is strictly below the value at the returned one, which
// the final argmin rules out. In exact arithmetic guard could be 0 — ties
// between ϕ and ϕ' would fall to the fewest-units rule — but in floats a
// tie or near-tie is decided by how later rows round perUnit·m, which only
// the full window reproduces; clip keeps it for such users.
//
// Band. T_lo = min(capacity, Σ need_i) with need_i = floor(guard). Lemma:
// the unclipped DP returns a total ≥ T_lo. If a final state m < T_lo held
// the minimum, its argmin allocation has capacity to spare and some
// ϕ_i < need_i; one more unit for that user is feasible and lowers the
// exact objective by more than guard (floor's definition), so by
// clipGuard's bound and monotone rounding final[m+1] < final[m] — m was
// not the minimum. A user inside the guard (need 0, want maxPhi) lowers
// T_lo by its window; guard = NaN or ∞ gives T_lo = 0.
//
// Slack. If Σ want ≤ capacity, the returned allocation has ϕ_i ≥ need_i
// for every i: were ϕ_i < need_i ≤ want_i, the total would be below
// Σ want ≤ capacity, and the band lemma's extra unit for user i would
// lower the final value at the next state below the returned one. least =
// need there; in the paper sweep's uncontended slots need = want for every
// user, and every user is pinned.
//
// Threshold. In a contended slot (T_lo = capacity) the returned total is
// capacity, so the users trade units against each other and, the costs
// being affine, the cheapest capacity units win. Give user i's units
// 1 … want_i their exact marginal costs μ — base + perUnit − skip for the
// first, the one that dodges the tail, and perUnit for each further one —
// and keys κ, their float values: firstUnit for the first unit, perUnit
// for the rest. Let λ_in and λ_out be the capacity-th and (capacity+1)-th
// smallest key over all units (λ_out = +∞ if there is none); least_i counts
// i's units keyed below λ_out − guard and most_i those keyed no higher than
// λ_in + guard, both computed in floats. Lemma: the unclipped DP returns
// ϕ_i ∈ [least_i, most_i] for every i. It needs every window user
// (want ≥ 2) convex, base ≤ skip so that μ never falls along a user's units:
// EMA.line's skip is base plus V·E ≥ 0, and a slot that misses it, or has
// a non-finite guard, keeps least = 0 and most = want. Suppose a unit u of
// user i keyed below λ_out − guard is not taken; i's next unit ν costs
// μ_ν ≤ μ_u. At most capacity units are keyed below λ_out and u, one of
// them, is not taken, so some taken unit v is keyed at or above λ_out —
// not one of i's, which precede ν and cost no more. Moving v's user's last
// unit (μ ≥ μ_v) to i's ν keeps the total and every ϕ within its want, and
// changes the exact objective by μ_ν − μ_v < −(guard − r − 4ε). Suppose
// instead a unit u of user i keyed above λ_in + guard is taken. At least
// capacity units are keyed no higher than λ_in and at most capacity − 1 of
// them are taken, so one of them, w, is not — not one of i's, which follow
// u and cost no less; moving i's last unit (μ ≥ μ_u) to the next unit of
// w's user (μ ≤ μ_w) changes the exact objective by less than
// −(guard − r − 2ε). Either allocation ends at the same state, so, as in
// the want lemma, its float value would be below the returned path's own —
// a contradiction. Rounding: |κ − μ| ≤ ε = 2⁻⁵²·(1+2⁻⁵²)·scale (two
// rounded operations on values below scale; capping a window user's first
// key at perUnit only moves it toward μ) and λ ± guard round by
// r < 2⁻⁵²·scale, so each exchange gains more than guard − 2⁻⁴⁹·scale ≥
// 48·2⁻⁵³·n·scale, above twice the 3·2⁻⁵³·n·scale bound of clipGuard's
// comment. The keys, not the exact μ, are counted, so the counting is
// exact; by the same counts least_i ≤ most_i and Σ least ≤ capacity ≤
// Σ most. Most users end pinned, least = most: all their wanted units, the
// one that dodges the tail, or none; only units keyed within the guard of
// the threshold stay free.
//
// Restricted candidates. Row k is computed on [lo_k, hi_k],
// lo_k = max(Σ_{i<k} least_i, T_lo − Σ_{i≥k} most_i) and
// hi_k = min(Σ_{i<k} most_i, capacity − Σ_{i≥k} least_i), and user k's
// transition offers only ϕ ∈ [least_k, most_k]; where neither the slack
// nor the threshold lemma applies, least = 0 and most = want, and lo_k is
// max(0, T_lo − Σ_{i≥k} want_i), the band lemma's alone. The returned
// path's prefix sums obey every bound (the lemmas), so it lies in the
// bands. By induction over the rows, every value is the minimum over a
// subset of the oracle's candidates at that state, read from values no
// smaller than the oracle's (monotone rounding; an unreachable or padded
// state holds the sentinel), so it is ≥ the oracle's value, and on the
// returned path it is equal: the winning candidate is offered, with the
// same inputs and float expressions. The final argmin (strict <,
// ascending) therefore stops at the same total, and at each state of the
// path grantAt's scan over the offered ϕ, largest j on ties, finds the
// same winner: its g is unchanged, every other g is no smaller, and every
// g at a larger j was strictly larger already. A pass reads row k on
// [lo_{k+1} − most_k, hi_{k+1} − least_k] at most: below lo_k it is cut
// short (the path does not go there) and above hi_k lie states no prefix
// within the bounds reaches, padded with the sentinel when a pass reads
// them (least < most). A pinned user is a shift: row k+1 is row k moved up
// by most_k, one candidate a state, and its grant is most_k without a scan.
// So when the final band is one state — every contended slot, and every
// slot whose users are all pinned — that state is the returned total and no
// row past the last free user's is read: the passes stop there, and a slot
// that pins every user runs none.
//
// Value-only forward passes. Every row is kept and the passes track no
// argmin: most = 0 is next[m] = cost[m] + skip, [0, 1] a two-term min
// against the single state m−1, anything wider a block prefix/suffix
// minimum, a pinned grant a shift (ema_kernel.go). A [1, w] user runs the
// window pass with skip = +∞: every candidate is finite, so each state
// m > lo stores its window's candidate, and the +∞ at state lo lies below
// the next row's band (nlo ≥ lo + least), which no pass or scan reads.
//
// Argmin at backtrack. Only the ≤ n states on the returned path need
// their ϕ, and grantAt recomputes each from the kept row with the passes'
// own float expressions: O(Σ (most − least)) per slot instead of a store
// per state.
func (e *EMA) runDP(lines []userLine, capacity int, alloc []int) {
	n := len(lines)
	stride := capacity + 1
	// Grow the table to the slot's active-count bound (not just the DP
	// participant count) so steady-state slots never allocate even when
	// participation churns upward.
	bound := n
	if e.dpBound > bound {
		bound = e.dpBound
	}
	e.rows = resize(e.rows, (bound+1)*stride)
	e.suf = resize(e.suf, stride)
	if cap(e.runs) < 2*bound {
		e.runs = make([]unitRun, 0, 2*bound)
	}

	tLo := e.bound(lines, capacity)
	leastLeft, mostLeft, lastFree := 0, 0, -1 // Σ_{i ≥ k} least_i, most_i before pass k
	for k := range lines {
		l := &lines[k]
		leastLeft += l.least
		mostLeft += l.most
		if l.least < l.most {
			lastFree = k
		}
	}
	leastAll := leastLeft
	// The final row's band. When it is one state, the returned total is
	// that state and no row past the last free user's is read, a pinned
	// user's grant being its bound: the passes stop there.
	loN, hiN := max(leastAll, tLo), min(mostLeft, capacity)
	passes := n
	if loN == hiN {
		passes = lastFree + 1
	}

	// Border condition: zero users processed, exactly m units used is
	// feasible only for m = 0. Row k is current on its band [lo, hi] only,
	// and padded with the unreachable sentinel above hi as far as pass k
	// reads, so no row is ever cleared.
	cost := e.rows[:stride]
	cost[0] = 0
	lo, hi, leastDone, mostDone := 0, 0, 0, 0
	for k := range lines[:passes] {
		l := &lines[k]
		leastDone += l.least
		mostDone += l.most
		leastLeft -= l.least
		mostLeft -= l.most
		nlo := max(leastDone, tLo-mostLeft)
		nhi := min(mostDone, capacity-leastLeft)
		next := e.rows[(k+1)*stride:][:stride]
		switch {
		case l.most == 0:
			emaSkipPass(cost[lo:hi+1], next[lo:hi+1], l.skip)
		case l.least == l.most:
			emaShiftPass(cost[lo:hi+1], next[nlo:nhi+1], lo, l.most, l.base, l.perUnit)
		default:
			for m := hi + 1; m <= nhi; m++ {
				cost[m] = math.MaxFloat64
			}
			switch {
			case l.least > 0:
				// No skip: its +∞ lands only at state lo, below nlo.
				emaWindowPass(cost[lo:nhi+1], next[lo:nhi+1], e.suf, lo, math.Inf(1), l.base, l.perUnit, l.most)
			case l.most == 1:
				emaUnitPass(cost[lo:nhi+1], next[lo:nhi+1], lo, l.skip, l.base, l.perUnit)
			default:
				emaWindowPass(cost[lo:nhi+1], next[lo:nhi+1], e.suf, lo, l.skip, l.base, l.perUnit, l.most)
			}
		}
		e.dpStates += nhi - nlo + 1
		lo, hi = nlo, nhi
		cost = next
	}

	// Step 15: the total minimizing the objective, fewest units on ties;
	// it is no less than T_lo.
	bestM := loN
	if loN < hiN { // every pass ran: [lo, hi] is the final band
		bestCost := math.MaxFloat64
		for m, c := range cost[lo : hi+1] {
			if c < bestCost {
				bestCost, bestM = c, lo+m
			}
		}
	}
	// Steps 16–18: walk the path back, recovering each grant.
	leastDone, mostLeft = leastAll, 0
	for k := n - 1; k >= 0; k-- {
		l := &lines[k]
		leastDone -= l.least
		mostLeft += l.most
		phi := l.most
		if l.least < l.most {
			phi = l.grantAt(e.rows[k*stride:][:stride], max(leastDone, tLo-mostLeft), bestM)
		}
		alloc[e.dpUser[k]] = phi
		bestM -= phi
	}
}

// bound sets every line's want and its grant bounds [least, most] by
// runDP's lemmas, and returns T_lo.
func (e *EMA) bound(lines []userLine, capacity int) (tLo int) {
	guard := clipGuard(lines, capacity)
	wants := 0
	for k := range lines {
		l := &lines[k]
		l.want = l.clip(guard)
		l.least, l.most = l.floor(guard), l.want // need: the slack lemma's
		tLo += l.least
		wants += l.want
	}
	switch {
	case tLo >= capacity:
		tLo = capacity
		if e.threshold(lines, capacity, guard) {
			return tLo
		}
	case wants <= capacity:
		return tLo
	}
	for k := range lines {
		lines[k].least = 0
	}
	return tLo
}

// unitRun is a run of a DP user's units with one key: its first unit, or
// its want − 1 further ones.
type unitRun struct {
	key   float64
	units int
}

// firstUnit is the key of the user's first unit: the float value of its
// marginal cost f(1) − f(0), capped for a window user at perUnit, the key
// of the units after it, so that keys never fall along a user's units.
func (l *userLine) firstUnit() float64 {
	k := l.base + l.perUnit - l.skip
	if l.want > 1 {
		k = min(k, l.perUnit)
	}
	return k
}

// threshold sets a contended slot's grant bounds [least, most] from the
// units' keys (runDP's comment, "Threshold") and reports whether it did. A
// slot it cannot classify — a non-finite guard, a window user whose skip
// is below its base — is left as it was.
func (e *EMA) threshold(lines []userLine, capacity int, guard float64) bool {
	if !(guard < math.Inf(1)) {
		return false
	}
	runs := e.runs[:0]
	for k := range lines {
		l := &lines[k]
		if l.want == 0 {
			continue
		}
		runs = append(runs, unitRun{l.firstUnit(), 1})
		if l.want > 1 {
			if !(l.base <= l.skip) {
				return false
			}
			runs = append(runs, unitRun{l.perUnit, l.want - 1})
		}
	}
	// λ_in keys the capacity-th unit (Σ want ≥ Σ need ≥ capacity units
	// exist); λ_out is λ_in if more units share its key, else the next key
	// up.
	in, out := unitKey(runs, capacity), math.Inf(1)
	upTo := 0
	for _, r := range runs {
		if r.key <= in {
			upTo += r.units
		} else if r.key < out {
			out = r.key
		}
	}
	if upTo > capacity {
		out = in
	}
	taken, kept := out-guard, in+guard
	for k := range lines {
		l := &lines[k]
		if l.want == 0 {
			continue
		}
		first := l.firstUnit()
		l.least, l.most = 0, 0
		if first < taken {
			l.least = 1
			if l.perUnit < taken {
				l.least = l.want
			}
		}
		if first <= kept {
			l.most = 1
			if l.perUnit <= kept {
				l.most = l.want
			}
		}
	}
	return true
}

// unitKey returns the key of the r-th cheapest unit in runs, the smallest
// key with at least r units keyed at or below it (1 ≤ r ≤ Σ units), by a
// three-way quickselect that reorders runs.
func unitKey(runs []unitRun, r int) float64 {
	for {
		pivot := runs[len(runs)/2].key
		lt, i, gt := 0, 0, len(runs) // runs[:lt] < pivot, runs[gt:] > pivot
		below, at := 0, 0
		for i < gt {
			switch k := runs[i].key; {
			case k < pivot:
				below += runs[i].units
				runs[lt], runs[i] = runs[i], runs[lt]
				lt++
				i++
			case k > pivot:
				gt--
				runs[i], runs[gt] = runs[gt], runs[i]
			default:
				at += runs[i].units
				i++
			}
		}
		switch {
		case r <= below:
			runs = runs[:lt]
		case r <= below+at:
			return pivot
		default:
			r -= below + at
			runs = runs[gt:]
		}
	}
}

// grantAt returns the ϕ behind the forward pass's value at state m: cost is
// the row the pass read, current from lo up, and the scan repeats its float
// expressions — the window minimum of g over j = m−1 … m−most, cut at
// lo, with the largest j on ties, taken only if it beats skipping strictly
// where skipping is offered (least = 0). Unreachable predecessors hold the
// MaxFloat64 sentinel and lose to any reachable one (ema_kernel.go).
func (l *userLine) grantAt(cost []float64, lo, m int) int {
	if l.least == l.most {
		return l.most
	}
	from := max(m-l.most, lo)
	bestJ := m - 1
	if bestJ < from {
		return 0
	}
	bestG := cost[bestJ] - l.perUnit*float64(bestJ)
	for j := bestJ - 1; j >= from; j-- {
		if g := cost[j] - l.perUnit*float64(j); g < bestG {
			bestG, bestJ = g, j
		}
	}
	if l.least > 0 || l.base+l.perUnit*float64(m)+bestG < cost[m]+l.skip {
		return m - bestJ
	}
	return 0
}

// runDPRef is the paper-literal O(n × capacity × maxPhi) dynamic program
// of Alg. 2, kept verbatim as the reference arm of the differential tests:
// it evaluates every ϕ branch explicitly and stores every state's choice,
// so it stays correct for arbitrary (non-affine) cost shapes and gates the
// fast path. It is not want-clipped and owns its tables.
func (e *EMA) runDPRef(lines []userLine, capacity int, alloc []int) {
	cost, next, choice := newChoiceDP(len(lines), capacity)

	const inf = math.MaxFloat64
	for k, l := range lines {
		granted := choice[k*(capacity+1):][:capacity+1]
		for m := 0; m <= capacity; m++ {
			best := inf
			var bestPhi int32
			// ϕ = 0 branch.
			if cost[m] < inf {
				best = cost[m] + l.skip
			}
			// ϕ ≥ 1 branches: f(ϕ) = base + perUnit·ϕ.
			hi := l.maxPhi
			if hi > m {
				hi = m
			}
			for phi := 1; phi <= hi; phi++ {
				prev := cost[m-phi]
				if prev >= inf {
					continue
				}
				c := prev + l.base + l.perUnit*float64(phi)
				if c < best {
					best = c
					bestPhi = int32(phi)
				}
			}
			next[m] = best
			granted[m] = bestPhi
		}
		cost, next = next, cost
	}
	e.finishChoiceDP(cost, choice, capacity, alloc)
}

// newChoiceDP returns the tables of a DP that stores every state's choice
// (runDPRef; the tests' deque oracle): two ping-pong value rows with the
// border condition set — zero users processed, exactly M units used is
// feasible only for M = 0 — and the n × (capacity+1) table of units
// granted to the k-th DP user at state M.
func newChoiceDP(n, capacity int) (cost, next []float64, choice []int32) {
	cost = make([]float64, capacity+1)
	for m := 1; m <= capacity; m++ {
		cost[m] = math.MaxFloat64
	}
	return cost, make([]float64, capacity+1), make([]int32, n*(capacity+1))
}

// finishChoiceDP picks the total allocation minimizing the objective
// (step 15) and backtracks the per-user grants through the choice table
// (steps 16–18).
func (e *EMA) finishChoiceDP(cost []float64, choice []int32, capacity int, alloc []int) {
	bestM, bestCost := 0, math.MaxFloat64
	for m := 0; m <= capacity; m++ {
		if cost[m] < bestCost {
			bestCost, bestM = cost[m], m
		}
	}
	for k := len(e.dpUser) - 1; k >= 0; k-- {
		phi := int(choice[k*(capacity+1)+bestM])
		alloc[e.dpUser[k]] = phi
		bestM -= phi
	}
}

func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

var _ Scheduler = (*EMA)(nil)
