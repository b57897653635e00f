package sched

import "math"

// This file holds the EMA DP's forward passes: one user's transition from
// the kept row cost (best objective of the users so far at exactly m
// units) to the row next, over the band of states runDP's two want-derived
// bounds leave — from lo (the returned total is at least T_lo, and the
// users still to come can add at most their wants) up to reach (Σ want so
// far). A pass is handed cost[lo:reach+1] and next[lo:reach+1] together
// with off = lo, the absolute state of element 0: indices are
// slice-relative, and off enters only as float64(off+j), so perUnit·m is
// multiplied by the same integer as in the unbanded DP. The window of an
// in-band state of next never reaches below lo (runDP's comment), so
// clamping it at the slice's first element loses nothing; what a pass
// writes below the next row's own lo — at most want states — is never read.
// The passes compute values only — no argmin, no choice store; runDP's
// backtrack recovers the grants of the states it visits from the rows
// (grantAt in ema.go, whose indices are data-dependent and therefore live
// there). Which pass runs is the user's want (runDP's comment has the
// lemmas):
//
//   - want = 0, emaSkipPass: next[m] = cost[m] + skip;
//   - want = 1, emaUnitPass: a two-term min against the single state m−1;
//   - want ≥ 2, emaWindowPass: min over j ∈ [max(lo, m−want), m−1] of
//     g[j] = cost[j] − perUnit·j by block prefix/suffix minima (Van Herk,
//     Gil–Werman), two branch-regular sweeps instead of a monotone deque's
//     data-dependent pushes and evictions.
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
// bit the deque's never-pushed semantics.
//
// The bce-check CI job (scripts/bce_check.sh) builds this package with
// `-gcflags='-d=ssa/check_bce'` and fails if any per-element
// `Found IsInBounds` appears in this file; the once-per-block slice
// headers may report IsSliceInBounds. Keep every loop range-bounded when
// editing, and off out of every index.

// emaSkipPass is the transition of a user that wants nothing: ϕ = 0 at
// every state.
func emaSkipPass(cost, next []float64, skip float64) {
	next = next[:len(cost)]
	for m, c := range cost {
		next[m] = c + skip
	}
}

// emaUnitPass is the transition of a user that wants at most one unit:
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

// emaWindowPass is the transition of a user that wants up to w ≥ 2 units.
// cost[0] is state off; suf is scratch for at least len(cost)−1 values.
// With the predecessor states j cut into blocks of w from off, the window
// [m−w, m−1] of state m is a suffix of one block followed by a prefix of
// the next: the first sweep stores every block's suffix minima of g, the
// second carries the running prefix minimum and combines the two. In block
// 0 the window is the clamped prefix [off, m−1] alone.
func emaWindowPass(cost, next, suf []float64, off int, skip, base, perUnit float64, w int) {
	if len(cost) == 0 || w < 1 {
		return
	}
	next = next[:len(cost)]
	next[0] = cost[0] + skip
	js := len(cost) - 1 // predecessor states j ∈ [0, js)
	suf = suf[:js]

	for bs := 0; bs < js; bs += w {
		be := bs + w
		if be > js {
			be = js
		}
		cb := cost[bs:be]
		sb := suf[bs:be]
		sb = sb[:len(cb)]
		run := math.Inf(1)
		for k := len(cb) - 1; k >= 0; k-- {
			if g := cb[k] - perUnit*float64(off+bs+k); g < run {
				run = g
			}
			sb[k] = run
		}
	}

	for bs := 0; bs < js; bs += w {
		be := bs + w
		if be > js {
			be = js
		}
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
		// the window's low end (at k = w−1 the window is this block alone
		// and sp[k] is its own minimum, equal to pre).
		sp := suf[bs-w+1 : be-w+1]
		sp = sp[:len(cb)]
		for k, cj := range cb {
			j := off + bs + k
			if g := cj - perUnit*float64(j); g < pre {
				pre = g
			}
			win := pre
			if s := sp[k]; s < win {
				win = s
			}
			best := cm[k] + skip
			if c := base + perUnit*float64(j+1) + win; c < best {
				best = c
			}
			nm[k] = best
		}
	}
}
