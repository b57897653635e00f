package sched

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"jointstream/internal/rng"
	"jointstream/internal/rrc"
	"jointstream/internal/units"
)

// stepAgainstDeque runs one slot through the production DP on e and through
// the deque oracle on a clone of e's pre-slot state, and fails unless the
// two return the EXACT allocation — not merely the same objective — and
// leave identical queues. e advances by its own (production) decision.
func stepAgainstDeque(t *testing.T, e *EMA, slot *Slot, whereFormat string, whereArgs ...any) []int {
	t.Helper()
	n := slot.NumUsers()
	dq := cloneEMA(e)
	prodAlloc := make([]int, n)
	dequeAlloc := make([]int, n)
	e.Allocate(slot, prodAlloc)
	dq.AllocateDeque(slot, dequeAlloc)
	for i := range prodAlloc {
		if prodAlloc[i] != dequeAlloc[i] {
			t.Fatalf("%s: allocations diverge at user %d: production %v deque %v",
				fmt.Sprintf(whereFormat, whereArgs...), i, prodAlloc, dequeAlloc)
		}
		if e.Queue(i) != dq.Queue(i) {
			t.Fatalf("%s: queue %d diverged: production %v deque %v",
				fmt.Sprintf(whereFormat, whereArgs...), i, e.Queue(i), dq.Queue(i))
		}
	}
	return prodAlloc
}

// TestEMABlockMatchesDeque is the bit-for-bit gate for the production DP
// (want-clipped windows and reach, value-only passes, grants recovered at
// backtrack): across user counts, capacities (including capacity < maxPhi,
// capacity equal to one window block, and capacities that leave partial
// blocks) and random queue evolutions, it must return the EXACT allocation
// the unclipped monotone-deque solver returns, so no change to the DP can
// move a checked-in figure. Queues are advanced by the production path's
// own decisions and mirrored into the deque clone each step, so both
// solvers always see identical state.
func TestEMABlockMatchesDeque(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 7, 10, 64, 205} {
		for n := 1; n <= 24; n++ {
			src := rng.New(uint64(9000*capacity + n))
			e := newEMA(t, 0.05+src.Float64()*2)
			for step := 0; step < 8; step++ {
				slot := randomSlotForDP(src, n, capacity)
				stepAgainstDeque(t, e, slot, "cap=%d n=%d step=%d", capacity, n, step)
			}
		}
	}
}

// TestEMABlockMatchesDequeAdversarial drives the same identity through
// tie-heavy instances: clusters of users sharing identical rate/signal
// (equal perUnit lines collide in the window minima) and tiny windows
// (maxPhi = 1) where every state sits on a block boundary.
func TestEMABlockMatchesDequeAdversarial(t *testing.T) {
	src := rng.New(4242)
	for trial := 0; trial < 60; trial++ {
		capacity := 1 + src.Intn(40)
		n := 2 + src.Intn(12)
		users := make([]user, n)
		proto := stdUser(400, -80, 1+src.Intn(4))
		for i := range users {
			users[i] = proto // identical lines → maximal tie pressure
			if src.Bool(0.25) {
				users[i].MaxUnits = 1
			}
		}
		slot := makeSlot(capacity, users...)
		stepAgainstDeque(t, newEMA(t, 0.5), slot, "trial %d cap=%d n=%d", trial, capacity, n)
	}
}

// TestEMABlockMatchesDequeLongEvolution is the same identity where the
// figure sweep lives: a paper-like cell (N = 40, capacity 205, sinusoidal
// signal with the paper's linear fits) stepped 300 slots at a small, a
// calibrated-range and a large V, queues and RRC tails advanced by the
// production path's own decisions. Queues hover around each user's
// V × price threshold and below, so — unlike the random-slot tests above — most
// users want nothing or the one tail-dodging unit, and the clipped
// windows, clipped reach and backtrack rescan carry the slot.
func TestEMABlockMatchesDequeLongEvolution(t *testing.T) {
	const n, capacity, steps = 40, 205, 300
	for _, v := range []float64{0.005, 0.3, 16} {
		var passes [3]int // by want: 0, 1, wider
		evolvePaperCell(t, v, n, capacity, steps, func(e *EMA, slot *Slot, step int) []int {
			alloc := stepAgainstDeque(t, e, slot, "V=%v step=%d", v, step)
			for _, l := range e.lines {
				passes[min(l.want, 2)]++
			}
			return alloc
		})
		total := passes[0] + passes[1] + passes[2]
		if passes[0] == 0 || passes[1] == 0 || passes[2] == 0 || 2*(passes[0]+passes[1]) < total {
			t.Errorf("V=%v: pass mix want=0 %d, want=1 %d, wider %d of %d: the clip is not what this run exercises",
				v, passes[0], passes[1], passes[2], total)
		}
	}
}

// evolvePaperCell steps a paper-like cell of n users — sinusoidal signal
// with the paper's linear fits, link bound ⌊τ·v(sig)/δ⌋, RRC tails — from
// queues around each user's V × price threshold: step decides every slot on
// e and returns the allocation the tails advance by.
func evolvePaperCell(t testing.TB, v float64, n, capacity, steps int, step func(e *EMA, slot *Slot, step int) []int) {
	t.Helper()
	src := rng.New(uint64(1000 * v))
	e := newEMA(t, v)
	rate := make([]units.KBps, n)
	phase := make([]float64, n)
	gap := make([]units.Seconds, n)
	never := make([]bool, n)
	for i := range rate {
		rate[i] = units.KBps(src.Uniform(300, 600))
		phase[i] = src.Float64()
		never[i] = true
		// Around V × price × rate at a good signal, where a user starts
		// to want data: from rest a large V would serve nobody for
		// thousands of slots.
		e.SetQueue(i, units.Seconds(src.Uniform(0.5, 1.5)*v*0.3*float64(rate[i])))
	}
	users := make([]user, n)
	for s := 0; s < steps; s++ {
		for i := range users {
			sig := -80 + 28*math.Sin(2*math.Pi*(float64(s)/60+phase[i])) + src.Uniform(-2, 2)
			u := stdUser(rate[i], units.DBm(sig), 0)
			u.MaxUnits = int(float64(u.LinkRate) / 100) // ⌊τ·v(sig)/δ⌋
			u.NeverActive = never[i]
			u.TailGap = gap[i]
			users[i] = u
		}
		slot := makeSlot(capacity, users...)
		for i, phi := range step(e, slot, s) {
			if phi > 0 {
				never[i], gap[i] = false, 0
			} else if !never[i] {
				gap[i] += slot.Tau
			}
		}
	}
}

// TestEMABlockMatchesDeque1k is the same identity at N = 1 000 users and
// capacity 5 000, 40 evolving slots of which some are contended: the band
// is a sixth of the want-clipped table there.
func TestEMABlockMatchesDeque1k(t *testing.T) {
	if testing.Short() {
		t.Skip("1 000 users × 5 000 units through the unclipped oracle")
	}
	evolvePaperCell(t, 0.3, 1000, 5000, 40, func(e *EMA, slot *Slot, step int) []int {
		return stepAgainstDeque(t, e, slot, "step=%d", step)
	})
}

// solveLines runs one DP solver on bare cost lines, DP user k being slot
// user k, from a fresh scheduler.
func solveLines(dp func(*EMA, []userLine, int, []int), lines []userLine, capacity int) []int {
	e := &EMA{dpBound: len(lines)}
	for k := range lines {
		e.dpUser = append(e.dpUser, k)
	}
	alloc := make([]int, len(lines))
	dp(e, append([]userLine(nil), lines...), capacity, alloc)
	return alloc
}

// checkLinesAgainstDeque fails unless the production DP and the deque
// oracle return the same allocation for these lines, grant for grant, and
// the oracle's lies inside the production DP's band. A divergence is
// reported with its input; there is no tolerance.
func checkLinesAgainstDeque(t *testing.T, lines []userLine, capacity int) {
	t.Helper()
	want := solveLines((*EMA).runDPDeque, lines, capacity)
	checkBandLemma(t, lines, capacity, want) // first: a broken lemma should say so, not "allocations differ"
	checkThresholdLemma(t, lines, capacity, want)
	got := solveLines((*EMA).runDP, lines, capacity)
	for k := range got {
		if got[k] != want[k] {
			t.Fatalf("capacity %d, lines %+v: production %v, deque %v", capacity, lines, got, want)
		}
	}
}

// checkBandLemma fails unless alloc — the unclipped deque oracle's answer
// for these lines, alloc[k] being line k's grant — is an allocation
// runDP's band keeps: need ≤ want for every line, a total of at least
// T_lo = min(capacity, Σ need), and after every k users a prefix sum in
// [lo_k, reach_k]. A failure here is a counter-example to runDP's lemmas,
// whatever the production DP went on to return. It returns T_lo.
func checkBandLemma(t *testing.T, lines []userLine, capacity int, alloc []int) (tLo int) {
	t.Helper()
	guard := clipGuard(lines, capacity)
	wants, wantsLeft := make([]int, len(lines)), 0
	for k := range lines {
		need := lines[k].floor(guard)
		wants[k] = lines[k].clip(guard)
		if need > wants[k] {
			t.Fatalf("lemma: capacity %d, line %d of %+v: need %d above want %d", capacity, k, lines, need, wants[k])
		}
		tLo += need
		wantsLeft += wants[k]
	}
	tLo = min(tLo, capacity)
	prefix, reach := 0, 0
	for k := 0; ; k++ {
		if lo := max(tLo-wantsLeft, 0); prefix < lo || prefix > reach {
			t.Fatalf("lemma: capacity %d, lines %+v: oracle %v holds %d units after %d users, outside the band [%d, %d] (T_lo %d)",
				capacity, lines, alloc, prefix, k, lo, reach, tLo)
		}
		if k == len(lines) {
			return tLo
		}
		wantsLeft -= wants[k]
		reach = min(reach+wants[k], capacity)
		prefix += alloc[k]
	}
}

// TestEMABandLemma checks runDP's two lemmas where they are claimed — on
// the unclipped oracle's allocation, not on the production DP's — for every
// kernelCases entry, the slots of TestEMABlockMatchesDequeLongEvolution and
// 10⁴ seeded random line sets with ties, near-ties and margins either side
// of the guard.
func TestEMABandLemma(t *testing.T) {
	for _, c := range kernelCases() {
		checkBandLemma(t, c.lines, c.capacity, solveLines((*EMA).runDPDeque, c.lines, c.capacity))
	}

	for _, v := range []float64{0.005, 0.3, 16} {
		banded := 0 // slots with T_lo > 0: a band narrower than the want-clip's
		evolvePaperCell(t, v, 40, 205, 300, func(e *EMA, slot *Slot, step int) []int {
			alloc := make([]int, slot.NumUsers())
			e.AllocateDeque(slot, alloc)
			grants := make([]int, len(e.lines))
			for k, i := range e.dpUser {
				grants[k] = alloc[i]
			}
			if checkBandLemma(t, e.lines, slot.CapacityUnits, grants) > 0 {
				banded++
			}
			return alloc
		})
		if 2*banded < 300 {
			t.Errorf("V=%v: T_lo > 0 in %d of 300 slots: the band is not what this run exercises", v, banded)
		}
	}

	src := rng.New(2424)
	for trial := 0; trial < 10_000; trial++ {
		capacity := 1 + src.Intn(48)
		lines := make([]userLine, 1+src.Intn(10))
		for k := range lines {
			l := userLine{base: src.Uniform(0, 2), maxPhi: 1 + src.Intn(min(capacity, 9))}
			switch src.Intn(4) {
			case 0:
				l.perUnit = src.Uniform(-1, 1)
			case 1:
				l.perUnit = src.Uniform(-1e-15, 1e-15)
			case 2:
				l.perUnit = -src.Uniform(0, 1)
			}
			// Skipping against one unit or the whole link bound: a tie, an
			// ULP off it, inside the guard, or a margin either way.
			tie := l.base + l.perUnit
			if src.Bool(0.5) {
				tie = l.base + l.perUnit*float64(l.maxPhi)
			}
			switch src.Intn(5) {
			case 0:
				l.skip = tie
			case 1:
				l.skip = math.Nextafter(tie, 10)
			case 2:
				l.skip = tie + src.Uniform(-1e-13, 1e-13)
			default:
				l.skip = tie + src.Uniform(-1, 1)
			}
			lines[k] = l
		}
		checkLinesAgainstDeque(t, lines, capacity)
	}
}

// TestEMAClip pins what the clip decides: a user wants nothing, one unit or
// its whole link bound, and any margin the slot's rounding could swallow —
// an exact tie above all — keeps the full window.
func TestEMAClip(t *testing.T) {
	for _, tc := range []struct {
		name  string
		line  userLine
		guard float64
		want  int
	}{
		{"rising, unit dearer than skipping", userLine{skip: 1, base: 2, perUnit: 3, maxPhi: 9}, 1e-9, 0},
		{"rising, unit dodges the tail", userLine{skip: 6, base: 2, perUnit: 3, maxPhi: 9}, 1e-9, 1},
		{"rising, unit ties with skipping", userLine{skip: 5, base: 2, perUnit: 3, maxPhi: 9}, 1e-9, 1},
		{"rising inside the guard", userLine{skip: 6, base: 2, perUnit: 1e-12, maxPhi: 9}, 1e-9, 9},
		{"flat", userLine{skip: 6, base: 2, perUnit: 0, maxPhi: 9}, 0, 9},
		{"falling, everything cheaper than skipping", userLine{skip: 1, base: 2, perUnit: -3, maxPhi: 9}, 1e-9, 9},
		{"falling, even everything dearer", userLine{skip: -30, base: 2, perUnit: -3, maxPhi: 9}, 1e-9, 0},
		{"falling, everything ties with skipping", userLine{skip: -25, base: 2, perUnit: -3, maxPhi: 9}, 1e-9, 9},
		{"NaN anywhere makes the guard NaN", userLine{skip: math.NaN(), base: 2, perUnit: 3, maxPhi: 9}, math.NaN(), 9},
	} {
		if got := tc.line.clip(tc.guard); got != tc.want {
			t.Errorf("%s: clip = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestEMANeed pins what floor decides beside clip: the units a user is
// known to take when capacity is spare are none, the one that beats
// skipping, or its whole link bound, and any margin the slot's rounding
// could swallow — the guard itself included — gives none.
func TestEMANeed(t *testing.T) {
	const g = 1e-9
	up, down := math.Nextafter(g, 1), math.Nextafter(g, 0)
	for _, tc := range []struct {
		name  string
		line  userLine
		guard float64
		need  int
	}{
		{"rising, unit dearer than skipping", userLine{skip: 1, base: 2, perUnit: 3, maxPhi: 9}, g, 0},
		{"rising, unit dodges the tail", userLine{skip: 6, base: 2, perUnit: 3, maxPhi: 9}, g, 1},
		{"rising, unit ties with skipping", userLine{skip: 5, base: 2, perUnit: 3, maxPhi: 9}, g, 0},
		{"falling, everything cheaper than skipping", userLine{skip: 1, base: 2, perUnit: -3, maxPhi: 9}, g, 9},
		{"falling, only everything cheaper than skipping", userLine{skip: -20, base: 2, perUnit: -3, maxPhi: 9}, g, 0},
		{"falling, unit ties with skipping", userLine{skip: -1, base: 2, perUnit: -3, maxPhi: 9}, g, 0},
		{"unit beats skipping by the guard", userLine{skip: g, base: 0, perUnit: 0, maxPhi: 9}, g, 0},
		{"unit beats skipping by an ULP under the guard", userLine{skip: down, base: 0, perUnit: 0, maxPhi: 9}, g, 0},
		{"unit beats skipping by an ULP over the guard", userLine{skip: up, base: 0, perUnit: 0, maxPhi: 9}, g, 1},
		{"unit loses by the guard", userLine{skip: -g, base: 0, perUnit: 0, maxPhi: 9}, g, 0},
		{"flat", userLine{skip: 6, base: 2, perUnit: 0, maxPhi: 9}, g, 1},
		{"flat, negative zero", userLine{skip: 6, base: 2, perUnit: math.Copysign(0, -1), maxPhi: 9}, g, 1},
		{"flat, guard 0", userLine{skip: 6, base: 2, perUnit: 0, maxPhi: 9}, 0, 1},
		{"falling by the guard", userLine{skip: 6, base: 2, perUnit: -g, maxPhi: 9}, g, 1},
		{"falling by an ULP under the guard", userLine{skip: 6, base: 2, perUnit: -down, maxPhi: 9}, g, 1},
		{"falling by an ULP over the guard", userLine{skip: 6, base: 2, perUnit: -up, maxPhi: 9}, g, 9},
		{"rising inside the guard", userLine{skip: 6, base: 2, perUnit: 1e-12, maxPhi: 9}, g, 1},
		{"NaN slope", userLine{skip: 6, base: 2, perUnit: math.NaN(), maxPhi: 9}, g, 0},
		{"NaN anywhere makes the guard NaN", userLine{skip: math.NaN(), base: 2, perUnit: 3, maxPhi: 9}, math.NaN(), 0},
		{"NaN guard", userLine{skip: 6, base: 2, perUnit: -3, maxPhi: 9}, math.NaN(), 0},
		{"infinite guard", userLine{skip: 6, base: 2, perUnit: -3, maxPhi: 9}, math.Inf(1), 0},
	} {
		got := tc.line.floor(tc.guard)
		if got != tc.need {
			t.Errorf("%s: floor = %d, want %d", tc.name, got, tc.need)
		}
		if want := tc.line.clip(tc.guard); got > want {
			t.Errorf("%s: floor = %d above clip = %d", tc.name, got, want)
		}
	}
}

// kernelCase is one DP subproblem on bare cost lines.
type kernelCase struct {
	lines    []userLine
	capacity int
}

// kernelCases are synthetic cost lines that EMA.line cannot easily produce
// and the clip must survive: exact and near ties between taking and
// skipping, vanishing slopes, one-unit windows and capacities, wants that
// overrun capacity or sum to zero, many identical users, and the edges of
// the band — needs summing to one under, exactly and one over capacity, a
// user inside the guard among users outside it, a window pass that starts
// mid-table. The first two are slots where a literal want (guard = 0, ties
// clipped) diverges from the unclipped DP: user 0's ϕ = 2 and ϕ = 1 (or 0)
// cost exactly the same, and the rounding of user 1's perUnit·m makes the
// later state cheaper.
func kernelCases() []kernelCase {
	type kc = kernelCase
	noiseA := userLine{skip: 0, base: 0, perUnit: -0.1, maxPhi: 1}
	noiseB := userLine{skip: 0.3, base: 0.1, perUnit: 0.1, maxPhi: 3}
	cases := []kc{
		{[]userLine{{skip: 1, base: 0, perUnit: 0, maxPhi: 2}, noiseA}, 3},
		{[]userLine{{skip: 0, base: 0, perUnit: 0, maxPhi: 2}, noiseA}, 3},
	}

	// One special line among two whose slopes round differently at every
	// state, in each position, at capacities below, at and above Σ maxPhi.
	for _, p := range []float64{0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-18, -1e-18} {
		for _, maxPhi := range []int{1, 2, 5} {
			base := 0.7
			for _, skip := range []float64{
				base + p,                   // taking one unit ties with skipping
				base + p*float64(maxPhi),   // taking everything ties with skipping
				base - 0.5,                 // skipping is cheaper by a margin
				base + 0.5,                 // taking is cheaper by a margin
				math.Nextafter(base+p, 10), // one ULP off the tie
			} {
				special := userLine{skip: skip, base: base, perUnit: p, maxPhi: maxPhi}
				for _, capacity := range []int{1, 3, 7, 64} {
					cases = append(cases,
						kc{[]userLine{special, noiseA, noiseB}, capacity},
						kc{[]userLine{noiseA, special, noiseB}, capacity},
						kc{[]userLine{noiseB, noiseA, special}, capacity})
				}
			}
		}
	}

	identical := func(l userLine, times int) []userLine {
		lines := make([]userLine, times)
		for k := range lines {
			lines[k] = l
		}
		return lines
	}
	wantsAll := userLine{skip: 4, base: 1, perUnit: -0.3, maxPhi: 6}
	wantsUnit := userLine{skip: 4, base: 1, perUnit: 0.3, maxPhi: 6}
	wantsNone := userLine{skip: 1, base: 4, perUnit: 0.3, maxPhi: 6}
	for _, capacity := range []int{1, 5, 12, 40, 100} {
		cases = append(cases,
			kc{identical(wantsAll, 12), capacity},  // Σ want = 12 link bounds, above capacity
			kc{identical(wantsUnit, 12), capacity}, // Σ want = 12
			kc{identical(wantsNone, 12), capacity}, // Σ want = 0
			kc{append(identical(wantsNone, 3), wantsAll, wantsUnit, wantsNone, wantsAll), capacity})
	}

	// Band edges. Σ need one above, at and one below capacity — unit users,
	// window users, both with users that want nothing.
	join := slices.Concat[[]userLine] // a fresh slice per case: the clamp below writes into it
	for d := -1; d <= 1; d++ {
		cases = append(cases,
			kc{identical(wantsUnit, 12), 12 + d},
			kc{identical(wantsAll, 4), 24 + d},
			kc{join(identical(wantsAll, 2), identical(wantsNone, 2), identical(wantsUnit, 5), identical(wantsAll, 1)), 23 + d})
	}
	// One user inside the guard (need 0, want maxPhi) first, in the middle
	// and last among users outside it, with room to spare, none, and a
	// single unit; then nobody outside it and wants over capacity.
	nearTie := userLine{skip: 1, base: 1, perUnit: 0, maxPhi: 5}
	strict := join(identical(wantsUnit, 3), identical(wantsAll, 2), identical(wantsUnit, 2)) // Σ need = Σ want = 17
	for _, capacity := range []int{1, 17, 19, 40} {
		cases = append(cases,
			kc{join([]userLine{nearTie}, strict), capacity},
			kc{join(strict[:4], []userLine{nearTie}, strict[4:]), capacity},
			kc{join(strict, []userLine{nearTie}), capacity})
	}
	cases = append(cases, kc{identical(nearTie, 6), 12})
	// A window user whose row starts at lo = 5 (capacity 40) or 4 (12), not a
	// multiple of its 6 units, on a band two blocks wide.
	for _, capacity := range []int{12, 40} {
		cases = append(cases, kc{join(identical(wantsUnit, 5), []userLine{nearTie, wantsAll}, identical(wantsUnit, 2)), capacity})
	}

	// Contended slots for the threshold lemma. Three where a threshold
	// without the guard excludes the oracle's allocation: slopes an ULP
	// apart among never-served users (skip = base, the first unit keyed
	// like the rest), so the exactly cheaper user's extra units lose to the
	// rounding of perUnit·m.
	cases = append(cases,
		kc{[]userLine{{skip: 2.0913995476881935, base: 2.0913995476881935, perUnit: -0.793919595111353, maxPhi: 3}, {skip: 2.8928791008676313, base: 2.8928791008676313, perUnit: -0.7939195951113532, maxPhi: 4}}, 6},
		kc{[]userLine{{skip: 5.589906061894766, base: 2.7059882419381704, perUnit: -0.2183743260947805, maxPhi: 5}, {skip: 5.296704013382289, base: 1.009628282770933, perUnit: -0.21837432609478052, maxPhi: 4}, {skip: 1.829585680863972, base: 1.829585680863972, perUnit: -0.21837432609478052, maxPhi: 9}, {skip: 1.6292972247022135, base: 1.6292972247022135, perUnit: -0.21837432609478052, maxPhi: 3}}, 9},
		kc{[]userLine{{skip: 2.4384789078442606, base: 2.4384789078442606, perUnit: -1.2736354735548725, maxPhi: 5}, {skip: 2.7471083253518556, base: 1.042144606728616, perUnit: -1.2736354735548727, maxPhi: 7}, {skip: 1.0153715227621132, base: 1.0153715227621132, perUnit: -1.2736354735548725, maxPhi: 9}}, 18})
	// Ties at the threshold: identical window users, the capacity at one
	// unit each, inside their extras and one short of every want.
	for _, capacity := range []int{4, 5, 13, 23} {
		cases = append(cases, kc{identical(wantsAll, 4), capacity}, kc{join(identical(wantsAll, 2), identical(wantsUnit, 3)), capacity})
	}
	// A window user's slope an ULP off, inside the guard of, or a margin
	// away from the slope the threshold falls on, first units cheap or keyed
	// like the extras.
	for _, d := range []float64{math.Nextafter(-0.3, 0) + 0.3, math.Nextafter(-0.3, -1) + 0.3, 1e-15, -1e-15, 0.01} {
		for _, skip := range []float64{1, 4} {
			near := userLine{skip: skip, base: 1, perUnit: -0.3 + d, maxPhi: 6}
			for _, capacity := range []int{3, 8, 11, 14} {
				cases = append(cases, kc{[]userLine{wantsAll, near, wantsAll}, capacity})
			}
		}
	}
	// A unit user whose first unit is keyed an ULP either side of
	// λ_out − guard. With capacity = n the threshold is the steepest extra
	// unit's: the first unit is forced exactly when skip − (base + perUnit)
	// beats max −perUnit by more than the guard.
	for _, s := range []float64{-1, 1} {
		lines := []userLine{wantsAll, wantsAll, {skip: 1, base: 0, perUnit: 0.5, maxPhi: 3}}
		for range 3 { // the guard moves with skip: settle it
			taken := -0.3 - clipGuard(lines, 3)
			lines[2].skip = 0.5 - taken // key = 0.5 − skip, exact (Sterbenz)
			for ; s < 0 && 0.5-lines[2].skip >= taken; lines[2].skip = math.Nextafter(lines[2].skip, 1) {
			}
			for ; s > 0 && 0.5-lines[2].skip < taken; lines[2].skip = math.Nextafter(lines[2].skip, 0) {
			}
		}
		cases = append(cases, kc{lines, 3}, kc{slices.Clone(lines), 4})
	}
	// More users than capacity: tail-dodging units compete for it, some
	// keyed alike, beside a falling window user and a never-served one.
	for _, capacity := range []int{1, 2, 4} {
		cases = append(cases,
			kc{join(identical(wantsUnit, 3), []userLine{{skip: 5, base: 1, perUnit: 0.3, maxPhi: 6}, {skip: 2, base: 1, perUnit: 0.3, maxPhi: 6}}), capacity},
			kc{join(identical(wantsUnit, 2), []userLine{wantsAll, {skip: 1, base: 1, perUnit: -0.3, maxPhi: 6}}), capacity})
	}
	// A user the guard keeps wide (need 0, want maxPhi) in a contended slot.
	for _, capacity := range []int{5, 20, 23} {
		cases = append(cases, kc{join(identical(wantsAll, 2), []userLine{nearTie}, identical(wantsAll, 2)), capacity})
	}

	// As EMA.line leaves it: no link bound above the cell's capacity.
	for _, c := range cases {
		for k := range c.lines {
			c.lines[k].maxPhi = min(c.lines[k].maxPhi, c.capacity)
		}
	}
	return cases
}

// TestEMAKernelLines gates the clip on lines instead of slots: for every
// kernelCases entry the production DP returns the deque oracle's
// allocation exactly. The entries also seed FuzzEMAKernel, so each must
// survive the fuzz encoding unchanged.
func TestEMAKernelLines(t *testing.T) {
	for _, c := range kernelCases() {
		checkLinesAgainstDeque(t, c.lines, c.capacity)
		if back := decodeFuzzLines(encodeFuzzLines(c.lines), c.capacity); !reflect.DeepEqual(back, c.lines) {
			t.Errorf("capacity %d: lines %+v decode as %+v", c.capacity, c.lines, back)
		}
	}
}

// fuzzLineBytes is one fuzzed line: skip, base, perUnit as float64 bits and
// maxPhi − 1 as a uint16, little-endian.
const fuzzLineBytes = 3*8 + 2

func encodeFuzzLines(lines []userLine) []byte {
	var b []byte
	for _, l := range lines {
		for _, x := range []float64{l.skip, l.base, l.perUnit} {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		b = binary.LittleEndian.AppendUint16(b, uint16(l.maxPhi-1))
	}
	return b
}

// decodeFuzzLines is encodeFuzzLines' inverse on the solvers' domain and
// folds everything else into it: non-finite values become 0, magnitudes
// wrap below 2⁴¹ (the MaxFloat64 sentinel assumes costs far below 2⁹⁶⁹),
// maxPhi lands in [1, capacity] as EMA.line leaves it, and at most 16
// lines are kept.
func decodeFuzzLines(data []byte, capacity int) []userLine {
	float := func(b []byte) float64 {
		x := math.Float64frombits(binary.LittleEndian.Uint64(b))
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0
		}
		if frac, exp := math.Frexp(x); exp > 40 {
			x = math.Ldexp(frac, exp%41)
		}
		return x
	}
	var lines []userLine
	for ; len(data) >= fuzzLineBytes && len(lines) < 16; data = data[fuzzLineBytes:] {
		lines = append(lines, userLine{
			skip:    float(data[0:]),
			base:    float(data[8:]),
			perUnit: float(data[16:]),
			maxPhi:  1 + int(binary.LittleEndian.Uint16(data[24:]))%capacity,
		})
	}
	return lines
}

// FuzzEMAKernel compares the production DP with the deque oracle,
// allocation for allocation, on fuzzed cost lines and capacities ≤ 512,
// seeded with kernelCases.
func FuzzEMAKernel(f *testing.F) {
	for _, c := range kernelCases() {
		f.Add(uint16(c.capacity-1), encodeFuzzLines(c.lines))
	}
	f.Fuzz(func(t *testing.T, capacityLess1 uint16, data []byte) {
		capacity := 1 + int(capacityLess1)%512
		if lines := decodeFuzzLines(data, capacity); len(lines) > 0 {
			checkLinesAgainstDeque(t, lines, capacity)
		}
	})
}

// emaArms are the three per-slot solvers behind their Allocate entry points.
var emaArms = []struct {
	name     string
	allocate func(*EMA, *Slot, []int)
}{
	{"production", (*EMA).Allocate},
	{"deque", (*EMA).AllocateDeque},
	{"ref", (*EMA).AllocateRef},
}

// TestEMAGrantAbove65535 is the regression test for grants the solvers
// once stored in 16 bits: a single backlogged user on a link and a cell
// that carry 70 000 units gets all of them from every solver, not
// 70 000 − 65 536.
func TestEMAGrantAbove65535(t *testing.T) {
	const units = 70_000
	slot := makeSlot(units, stdUser(400, -80, units))
	for _, arm := range emaArms {
		e := newEMA(t, 0.5)
		e.SetQueue(0, 500)
		alloc := make([]int, 1)
		arm.allocate(e, slot, alloc)
		if alloc[0] != units {
			t.Errorf("%s: alloc = %d, want %d", arm.name, alloc[0], units)
		}
	}
}

// BenchmarkEMADP compares the per-slot cost of the production DP with the
// deque oracle and the paper-literal reference at the paper-scale shape
// (capacity 205) on one random slot in three queue states, restored before
// every iteration: "random" is the slot's own equilibrium (queues piled up
// over 200 slots until users want whole link bounds — Σ want stays under
// capacity, one state a row), "want-heavy" the figure sweep's steady state
// (every queue negative, so each user wants nothing or the one unit that
// dodges its tail), "contended" the regime neither reaches: link bounds
// doubled and users backlogged one by one until Σ need is just above
// capacity, the rest as in want-heavy, so the rows are Σ want − capacity
// wide. The two oracles allocate their tables on every call.
func BenchmarkEMADP(b *testing.B) {
	const n, capacity = 30, 205
	for _, shape := range []string{"random", "want-heavy", "contended"} {
		for _, arm := range emaArms {
			b.Run(shape+"/"+arm.name, func(b *testing.B) {
				e, err := NewEMA(EMAConfig{V: 0.5, RRC: rrc.Paper3G()})
				if err != nil {
					b.Fatal(err)
				}
				src := rng.New(7)
				slot := randomSlotForDP(src, n, capacity)
				alloc := make([]int, n)
				e.ensureQueues(n)
				switch shape {
				case "want-heavy", "contended":
					for i := range e.queues {
						e.queues[i] = units.Seconds(-src.Uniform(1, 40))
					}
					if shape == "contended" {
						for i, need := 0, 0; i < n && need <= capacity; i++ {
							slot.Cols.MaxUnits[i] *= 2
							e.queues[i] = 5000
							need += slot.MaxUnitsAt(i)
						}
					}
				default:
					for i := 0; i < 200; i++ {
						e.Allocate(slot, alloc)
					}
				}
				start := append([]units.Seconds(nil), e.queues...)
				arm.allocate(e, slot, alloc) // grow the production tables outside the timer
				if shape == "contended" && !classified(e.lines, capacity) {
					b.Fatal("the contended slot is not contended, or the threshold lemma leaves it unclassified")
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(e.queues, start)
					for j := range alloc {
						alloc[j] = 0
					}
					arm.allocate(e, slot, alloc)
				}
			})
		}
	}
}
