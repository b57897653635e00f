package sched

import "math"

// This file holds the EMA DP's forward passes: one user's transition from
// the kept row cost (best objective of the users so far at exactly m
// units) to the row next, over the band of states runDP's grant bounds
// leave. A pass is handed slices of cost and next together with off, the
// absolute state of cost's element 0: indices are slice-relative, and off
// enters only as float64(off+j), so perUnit·m is multiplied by the same
// integer as in the unbanded DP. The window of an in-band state of next
// never needs a state below the row's lo (runDP's comment), so clamping it
// at the slice's first element loses nothing; what a pass writes below the
// next row's own lo is never read. The passes compute values only — no
// argmin, no choice store; runDP's backtrack recovers the grants of the
// states it visits from the rows (grantAt in ema.go, whose indices are
// data-dependent and therefore live there). Which pass runs is the user's
// grant bounds [least, most] (runDP's comment has the lemmas):
//
//   - [0, 0], emaSkipPass: next[m] = cost[m] + skip;
//   - [0, 1], emaUnitPass: a two-term min against the single state m−1;
//   - [0, w] or [1, w], w ≥ 2, emaWindowPass: min over
//     j ∈ [max(lo, m−w), m−1] of g[j] = cost[j] − perUnit·j by block
//     prefix/suffix minima (Van Herk, Gil–Werman), two branch-regular
//     sweeps instead of a monotone deque's data-dependent pushes and
//     evictions; [1, w] passes skip = +∞, so every state but the first
//     stores its window's candidate;
//   - [w, w], w ≥ 1, emaShiftPass: the single candidate j = m − w.
//
// Every pass evaluates a candidate with the float expressions of the
// paper-literal recurrence as the deque oracle groups them —
// g = cost[j] − perUnit·float64(j), c = base + perUnit·float64(m) + g,
// c < cost[m] + skip strict — so values agree bit for bit with the
// unclipped DP wherever the lemmas say they must.
//
// Unreachable states carry cost = MaxFloat64 and need no branch: skip,
// base and perUnit·m are astronomically below half an ULP of MaxFloat64
// (2⁹⁶⁹), so cost + skip and g round back to exactly MaxFloat64, g loses
// every min against a reachable state's, and when the whole window is
// unreachable the candidate c = MaxFloat64 fails the strict `<` — bit for
// bit the deque's never-pushed semantics. Where skip is +∞ or absent that
// candidate is stored as the state's value: unreachable still.
//
// The bce-check CI job (scripts/bce_check.sh) builds this package with
// `-gcflags='-d=ssa/check_bce'` and fails if any per-element
// `Found IsInBounds` appears in this file; the once-per-block slice
// headers may report IsSliceInBounds. Keep every loop range-bounded when
// editing, and off out of every index.

// emaSkipPass is the transition of a user granted nothing: ϕ = 0 at every
// state.
func emaSkipPass(cost, next []float64, skip float64) {
	next = next[:len(cost)]
	for m, c := range cost {
		next[m] = c + skip
	}
}

// emaUnitPass is the transition of a user granted at most one unit:
// state m either skips from m or takes the unit from m−1. cost[0] is state
// off.
func emaUnitPass(cost, next []float64, off int, skip, base, perUnit float64) {
	if len(cost) == 0 {
		return
	}
	next = next[:len(cost)]
	next[0] = cost[0] + skip
	prev := cost[0]
	cm := cost[1:] // cm[j] = cost[m], m = j+1
	nm := next[1:]
	nm = nm[:len(cm)]
	for j, cur := range cm {
		g := prev - perUnit*float64(off+j)
		best := cur + skip
		if c := base + perUnit*float64(off+j+1) + g; c < best {
			best = c
		}
		nm[j] = best
		prev = cur
	}
}

// emaWindowPass is the transition of a user granted up to w ≥ 2 units.
// cost[0] is state off; suf is scratch for at least len(cost)−1 values.
// With the predecessor states j cut into blocks of w from off, the window
// [m−w, m−1] of state m is a suffix of one block followed by a prefix of
// the next: emaSuffixMinima stores the suffix minima of g the next block
// reads, and the second sweep carries the running prefix minimum and
// combines the two. In block 0 the window is the clamped prefix [off, m−1]
// alone.
func emaWindowPass(cost, next, suf []float64, off int, skip, base, perUnit float64, w int) {
	if len(cost) == 0 || w < 1 {
		return
	}
	next = next[:len(cost)]
	next[0] = cost[0] + skip
	js := len(cost) - 1 // predecessor states j ∈ [0, js)
	emaSuffixMinima(cost[:js], suf, off, perUnit, w)

	for bs := 0; bs < js; bs += w {
		be := min(bs+w, js)
		cb := cost[bs:be]       // cb[k] = cost[j], j = bs+k
		cm := cost[bs+1 : be+1] // cm[k] = cost[m], m = j+1
		cm = cm[:len(cb)]
		nm := next[bs+1 : be+1]
		nm = nm[:len(cb)]
		pre := math.Inf(1)
		if bs == 0 {
			for k, cj := range cb {
				if g := cj - perUnit*float64(off+k); g < pre {
					pre = g
				}
				best := cm[k] + skip
				if c := base + perUnit*float64(off+k+1) + pre; c < best {
					best = c
				}
				nm[k] = best
			}
			continue
		}
		// sp[k] = min g over [j−w+1, bs): the previous block's suffix from
		// the window's low end. At k = w−1 the window is this block alone,
		// and its minimum is pre.
		sp := suf[bs-w+1 : bs]
		for k, cj := range cb {
			j := off + bs + k
			if g := cj - perUnit*float64(j); g < pre {
				pre = g
			}
			win := pre
			if k < len(sp) {
				if s := sp[k]; s < win {
					win = s
				}
			}
			best := cm[k] + skip
			if c := base + perUnit*float64(j+1) + win; c < best {
				best = c
			}
			nm[k] = best
		}
	}
}

// emaSuffixMinima is the window passes' first sweep: for every block of w
// predecessor states that another block follows, suf[j] = min g over
// [j, block end). Block b+1 reads suf over [bs_b+1, bs_b+w−1], the suffixes
// its windows take from block b; at its own k = w−1 the window is block
// b+1 alone and the running prefix minimum is the whole of it (the minimum
// of the same values, so the strict < that would combine it with block
// b+1's own suffix minimum never fires). The last block is read by no one
// and gets no sweep: a band of at most w predecessor states needs none.
func emaSuffixMinima(cost, suf []float64, off int, perUnit float64, w int) {
	for bs := 0; bs+w < len(cost); bs += w {
		cb := cost[bs : bs+w]
		sb := suf[bs : bs+w]
		sb = sb[:len(cb)]
		run := math.Inf(1)
		for k := len(cb) - 1; k >= 0; k-- {
			if g := cb[k] - perUnit*float64(off+bs+k); g < run {
				run = g
			}
			sb[k] = run
		}
	}
}

// emaShiftPass is the transition of a user whose grant runDP's threshold
// lemma pins at exactly w ≥ 1 units: state m takes w from m − w, with the
// window passes' float expressions for a one-state window. cost[0] is
// state off and next[0] state off+w; an unreachable state stays
// MaxFloat64.
func emaShiftPass(cost, next []float64, off, w int, base, perUnit float64) {
	next = next[:len(cost)]
	for r, c := range cost {
		j := off + r
		next[r] = base + perUnit*float64(j+w) + (c - perUnit*float64(j))
	}
}
