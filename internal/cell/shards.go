package cell

import (
	"jointstream/internal/units"
)

// This file holds the sharded engine's per-shard bodies and the generic
// (gather-indexed) per-user commit. The bodies dispatch to the dense
// column kernels in kernels.go whenever a slot's live list is the
// identity [0, N); otherwise they walk the live list, whose indices are
// data-dependent and therefore inherently bounds-checked.

// prepareShardBody is the prepare phase for one shard: refresh the
// dynamic columns of the shard's live users for slot s.curSlot, zero
// their allocations, and collect the shard's active-index segment.
func (s *Simulator) prepareShardBody(sh int) {
	lo, hi := shardBounds(sh, s.curShards, len(s.curLive))
	act := s.shardAct[sh][:0]
	if s.curDense && s.colsTabled() && s.abrCtls == nil {
		s.deriveDense(lo, hi)
		act = s.prepareDenseLink(s.curSlot, lo, hi, act)
	} else {
		tabled := s.colsTabled()
		alloc := s.alloc
		for _, i := range s.curLive[lo:hi] {
			if s.prepareColsUser(tabled, s.curSlot, i) {
				act = append(act, i)
			}
			alloc[i] = 0
		}
	}
	s.shardAct[sh] = act
}

// commitShardBody is the plain commit phase for one shard (final slot of
// a run, where there is no next slot to fuse a prepare into).
func (s *Simulator) commitShardBody(sh int) {
	lo, hi := shardBounds(sh, s.curShards, len(s.curLive))
	acc := &s.shardAcc[sh]
	*acc = slotAccum{errUser: -1}
	ret := s.shardRet[sh][:0]
	res := s.curRes
	for p, i := range s.curLive[lo:hi] {
		if err := s.commitUserCols(s.curSlot, i, res, acc, s.cols.EnergyPerKB, s.cols.Rate); err != nil {
			acc.err = err
			acc.errUser = i
			break
		}
		if s.retireEligible(i) {
			s.users[i].retired = true
			ret = append(ret, lo+p)
		}
	}
	s.shardRet[sh] = ret
}

// fusedShardBody is the fused commit+prepare pass for one shard: each
// live user is committed for slot s.curSlot (priced with the pinned
// prevEpkb/prevRate columns — s.cols already holds slot curSlot+1) and
// immediately prepared for slot curSlot+1. Per user the order is exactly
// commit-then-prepare, which matches the phase-separated engine because
// neither phase reads another user's state.
func (s *Simulator) fusedShardBody(sh int) {
	lo, hi := shardBounds(sh, s.curShards, len(s.curLive))
	acc := &s.shardAcc[sh]
	*acc = slotAccum{errUser: -1}
	act, ret := s.shardAct[sh][:0], &s.shardRet[sh]
	*ret = (*ret)[:0]
	if s.curDense && s.colsTabled() && s.abrCtls == nil && s.cfg.Record != RecordUserSlots {
		s.deriveDense(lo, hi)
		act = s.fusedDenseLink(s.curSlot, lo, hi, act, ret, acc)
	} else {
		res := s.curRes
		tabled := s.colsTabled()
		alloc := s.alloc
		next := s.curSlot + 1
		for p, i := range s.curLive[lo:hi] {
			if err := s.commitUserCols(s.curSlot, i, res, acc, s.prevEpkb, s.prevRate); err != nil {
				acc.err = err
				acc.errUser = i
				break
			}
			if s.retireEligible(i) {
				s.users[i].retired = true
				*ret = append(*ret, lo+p)
			}
			if s.prepareColsUser(tabled, next, i) {
				act = append(act, i)
			}
			alloc[i] = 0
		}
	}
	s.shardAct[sh] = act
}

// commitUserCols applies slot slotIdx's allocation outcome to user i —
// energy per Eq. (5), RRC transition, buffer recursion Eq. (7), totals,
// samples — accumulating the slot-level aggregates into acc. It is the
// one per-user commit, shared by the sharded engine and RunReference: the
// per-user view fields are read straight from the column arrays, and Eq.
// (3) reuses the per-KB price already materialized there (P is a pure
// function of the slot's signal), so the commit never re-enters the radio
// interfaces. epkbCol/rateCol are passed explicitly because the fused pass
// prices slot n with columns the view has already moved past. It writes
// only user-i state and acc, so distinct users commit concurrently as
// long as each shard owns its acc.
func (s *Simulator) commitUserCols(slotIdx, i int, res *Result, acc *slotAccum, epkbCol []units.MJ, rateCol []units.KBps) error {
	u := &s.users[i]
	ru := &res.Users[i]
	granted := s.alloc[i]

	// Energy per Eq. (5): transmission when scheduled, tail when not.
	var deliveredKB units.KB
	var slotEnergy units.MJ
	if granted > 0 {
		deliveredKB = units.KB(float64(granted) * float64(s.cfg.Unit))
		// Cap the last shard at the true remainder so byte accounting
		// stays exact even though units are discrete.
		if rem := s.cols.RemainingKB[i]; deliveredKB > rem {
			deliveredKB = rem
		}
		slotEnergy = units.MJ(float64(epkbCol[i]) * float64(deliveredKB))
		ru.TransEnergy += slotEnergy
		ru.ActiveSlots++
		u.tail.Transfer()
	} else {
		slotEnergy = u.tail.IdleSlot(&s.cfg.RRC, s.cfg.Tau)
		ru.TailEnergy += slotEnergy
	}
	ru.DeliveredKB += deliveredKB

	// Buffer dynamics only for users that have started.
	var c units.Seconds
	if slotIdx >= int(u.startSlot) {
		viewRate := rateCol[i]
		wasComplete := u.buf.PlaybackComplete()
		var err error
		c, err = u.buf.Advance(deliveredKB, viewRate, s.cfg.Tau)
		if err != nil {
			return err
		}
		if !wasComplete && u.buf.PlaybackComplete() {
			ru.CompletionSlot = slotIdx
			acc.completions++
		}
		if !wasComplete {
			ru.QualitySum += float64(viewRate)
			ru.QualitySlots++
			if u.prevRate != 0 && viewRate != u.prevRate {
				ru.QualitySwitches++
			}
			u.prevRate = viewRate
		}

		// Fairness sample F_i = delivered/needed for users with a need.
		if s.cols.Active[i] {
			needKB := float64(viewRate) * float64(s.cfg.Tau)
			if rem := float64(s.cols.RemainingKB[i]); needKB > rem {
				needKB = rem
			}
			if needKB > 0 {
				f := float64(deliveredKB) / needKB
				if f > 1 {
					f = 1
				}
				acc.fairNum += f
				acc.fairDen += f * f
				acc.fairCount++
			}
		}
	}
	ru.Rebuffer += c
	acc.rebuffer += c
	acc.energy += slotEnergy
	acc.usedUnits += granted

	if s.cfg.Record == RecordUserSlots {
		res.RebufferSamples[i] = append(res.RebufferSamples[i], float64(c))
		res.EnergySamples[i] = append(res.EnergySamples[i], float64(slotEnergy))
	}
	return nil
}
