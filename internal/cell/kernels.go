package cell

import (
	"jointstream/internal/units"
)

// This file holds ONLY the dense column kernels. They run whenever a
// slot's live list is the identity [0, N) — no late admissions pending,
// nobody retired — which is the steady state of large-N runs: they
// iterate contiguous index ranges over reslices of the column arrays, so
// the loop bodies inline, carry no per-user function-call overhead, and
// compile without per-element bounds checks.
//
// The bce-check CI job (scripts/bce_check.sh) builds this package with
// `-gcflags='-d=ssa/check_bce'` and fails if any per-element
// `Found IsInBounds` reappears in this file. The once-per-shard slice
// headers below may legitimately report IsSliceInBounds; the per-element
// loads are guarded by the `x = x[:len(anchor)]` length-equalizing
// reslices, which let the compiler prove every x[k] with k ranging over
// the anchor in range. Keep that structure when editing.

// prepareDenseLink is prepareColsUser specialized for the dense steady
// state without ABR: a contiguous [lo, hi) index
// range iterated over reslices of the column arrays, whose physics
// deriveDense has already derived. Bitwise-identical to the per-user path
// — same reads, same guards, same float ops.
func (s *Simulator) prepareDenseLink(slotIdx, lo, hi int, act []int) []int {
	lu := s.luCol[lo:hi]
	users := s.users[lo:hi]
	activeC := s.cols.Active[lo:hi]
	bufC := s.cols.BufferSec[lo:hi]
	remC := s.cols.RemainingKB[lo:hi]
	tailC := s.cols.TailGap[lo:hi]
	nevC := s.cols.NeverActive[lo:hi]
	maxC := s.cols.MaxUnits[lo:hi]
	alloc := s.alloc[lo:hi]
	// Length-equalizing reslices: pin every column to len(lu) so the
	// compiler can prove x[k] in range for k := range lu (BCE).
	users = users[:len(lu)]
	activeC = activeC[:len(lu)]
	bufC = bufC[:len(lu)]
	remC = remC[:len(lu)]
	tailC = tailC[:len(lu)]
	nevC = nevC[:len(lu)]
	maxC = maxC[:len(lu)]
	alloc = alloc[:len(lu)]
	unit := float64(s.cfg.Unit)
	for k := range lu {
		u := &users[k]
		started := slotIdx >= int(u.startSlot)
		active := started && !u.buf.DeliveryComplete()
		remainingKB := u.buf.RemainingBytes()
		activeC[k] = active
		bufC[k] = u.buf.Occupancy()
		remC[k] = remainingKB
		tailC[k] = u.tail.Gap
		nevC[k] = !u.tail.EverActive
		maxC[k] = maxUnitsFor(active, int(lu[k]), remainingKB, unit)
		alloc[k] = 0
		if active {
			act = append(act, lo+k)
		}
	}
	return act
}

// fusedDenseLink is the fused commit+prepare kernel for the dense steady
// state (no ABR, no per-user-slot recording): one pass over
// a contiguous [lo, hi) range that commits slot slotIdx — priced with
// the pinned prevEpkb/prevRate columns — and prepares slot slotIdx+1,
// whose physics deriveDense has already derived.
// Every per-user operation mirrors commitUserCols followed by
// prepareColsUser, in that order; the engine matrix tests pin it to the
// reference engine bit for bit. A retired user's live-list position, its
// index in a dense slot, goes to *ret (a pointer, so the loop carries none).
// The shard's totals stay in locals, which the loop keeps in registers,
// and reach *acc once, at the end.
func (s *Simulator) fusedDenseLink(slotIdx, lo, hi int, act []int, ret *[]int, acc *slotAccum) []int {
	users := s.users[lo:hi]
	resUsers := s.curRes.Users[lo:hi]
	alloc := s.alloc[lo:hi]
	epkbC := s.prevEpkb[lo:hi]
	rateC := s.prevRate[lo:hi]
	lu := s.luCol[lo:hi] // already derived for slot slotIdx+1
	activeC := s.cols.Active[lo:hi]
	bufC := s.cols.BufferSec[lo:hi]
	remC := s.cols.RemainingKB[lo:hi]
	tailC := s.cols.TailGap[lo:hi]
	nevC := s.cols.NeverActive[lo:hi]
	maxC := s.cols.MaxUnits[lo:hi]
	// Length-equalizing reslices (see file comment): prove x[k] in range.
	users = users[:len(lu)]
	resUsers = resUsers[:len(lu)]
	alloc = alloc[:len(lu)]
	epkbC = epkbC[:len(lu)]
	rateC = rateC[:len(lu)]
	activeC = activeC[:len(lu)]
	bufC = bufC[:len(lu)]
	remC = remC[:len(lu)]
	tailC = tailC[:len(lu)]
	nevC = nevC[:len(lu)]
	maxC = maxC[:len(lu)]
	unit := float64(s.cfg.Unit)
	tau := s.cfg.Tau
	tauF := float64(tau)
	prof := &s.cfg.RRC
	tailDrained := s.tailDrained
	var rebuffer units.Seconds
	var energy units.MJ
	var fairNum, fairDen float64
	var usedUnits, fairCount, completions int
	for k := range lu {
		u := &users[k]
		ru := &resUsers[k]
		granted := alloc[k]

		// --- commit slot slotIdx (mirrors commitUserCols; a dense slot
		// implies every user is live and therefore started, so the
		// startSlot guards of the general path are constant-true) ---
		var deliveredKB units.KB
		var slotEnergy units.MJ
		if granted > 0 {
			deliveredKB = units.KB(float64(granted) * unit)
			if rem := remC[k]; deliveredKB > rem {
				deliveredKB = rem
			}
			slotEnergy = units.MJ(float64(epkbC[k]) * float64(deliveredKB))
			ru.TransEnergy += slotEnergy
			ru.ActiveSlots++
			u.tail.Transfer()
		} else {
			slotEnergy = u.tail.IdleSlot(prof, tau)
			ru.TailEnergy += slotEnergy
		}
		ru.DeliveredKB += deliveredKB

		viewRate := rateC[k]
		st, err := u.buf.Advance(deliveredKB, viewRate, tau)
		if err != nil {
			*acc = slotAccum{err: err, errUser: lo + k}
			return act
		}
		// Advance's completion flags serve the completion event, the
		// quality accounting, the retirement test and the next prepare.
		if !st.WasComplete {
			if st.Complete {
				ru.CompletionSlot = slotIdx
				completions++
			}
			ru.QualitySum += float64(viewRate)
			ru.QualitySlots++
			if u.prevRate != 0 && viewRate != u.prevRate {
				ru.QualitySwitches++
			}
			u.prevRate = viewRate
		}
		if activeC[k] {
			if deliveredKB == 0 {
				// f = 0/needKB = +0 contributes nothing to the Jain sums;
				// only the sample count moves. Skipping the division is
				// bitwise-identical (the sums are never −0) and removes
				// a 100k-per-slot divide from the idle majority.
				if viewRate > 0 && remC[k] > 0 {
					fairCount++
				}
			} else {
				needKB := float64(viewRate) * tauF
				if rem := float64(remC[k]); needKB > rem {
					needKB = rem
				}
				if needKB > 0 {
					f := float64(deliveredKB) / needKB
					if f > 1 {
						f = 1
					}
					fairNum += f
					fairDen += f * f
					fairCount++
				}
			}
		}
		ru.Rebuffer += st.Rebuffer
		rebuffer += st.Rebuffer
		energy += slotEnergy
		usedUnits += granted

		// --- retire check (mirrors commitUserCols' retire) ---
		if st.Complete && st.Delivered && u.tail.Drained(tailDrained) {
			u.retired = true
			*ret = append(*ret, lo+k)
		}

		// --- prepare slot slotIdx+1 (mirrors prepareDenseLink) ---
		active := !st.Delivered
		remainingKB := u.buf.RemainingBytes()
		activeC[k] = active
		bufC[k] = u.buf.Occupancy()
		remC[k] = remainingKB
		tailC[k] = u.tail.Gap
		nevC[k] = !u.tail.EverActive
		maxC[k] = maxUnitsFor(active, int(lu[k]), remainingKB, unit)
		alloc[k] = 0
		if active {
			act = append(act, lo+k)
		}
	}
	*acc = slotAccum{rebuffer: rebuffer, energy: energy, usedUnits: usedUnits,
		fairNum: fairNum, fairDen: fairDen, fairCount: fairCount, completions: completions, errUser: -1}
	return act
}
