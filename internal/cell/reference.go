package cell

import (
	"context"
	"fmt"

	"jointstream/internal/units"
)

// RunReference executes the simulation with the original full-scan
// serial engine: every slot prepares, schedules and commits all N users
// in index order — physics evaluated analytically through the signal and
// radio interfaces (never the link window), flat (unsharded) accumulation,
// and a nil ActiveList so schedulers take their scan fallback. It runs on
// the same slot columns and the same per-user prepare and commit as Run;
// what it keeps independent is everything the engine adds around
// them — link rows, live list, shards, fused pass, dense kernels. It is the
// reference arm of the engine differential tests in internal/simtest —
// Run must reproduce its Result bit for bit whenever the shard layout is
// a single shard (live users ≤ ShardSize), and match it up to float
// reassociation otherwise. It checks ctx at the top of every slot, as
// Advance does. Production callers use Run.
func (s *Simulator) RunReference(ctx context.Context) (*Result, error) {
	if err := s.begin(); err != nil {
		return nil, err
	}
	res := s.newResult()
	slot := &s.slot
	alloc := s.alloc
	slot.ActiveList = nil // schedulers exercise their full-scan fallback

	// The reference arm evaluates the physics analytically into columns it
	// owns for the run. newSim left Sig and Rate for attachSlotColumns to
	// alias onto the link window's rows; those may be a shared immutable
	// Config.Link, so the arm never writes through such an alias — it takes
	// private columns instead and leaves s.win unread (a sliding window is
	// never filled, nor a goroutine started).
	s.cols.Sig = make([]units.DBm, len(s.users))
	s.cols.Rate = make([]units.KBps, len(s.users))

	for slotIdx := 0; slotIdx < s.cfg.MaxSlots; slotIdx++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("cell: run cancelled at slot %d: %w", slotIdx, err)
		}
		slot.N = slotIdx
		allDone := true
		for i := range s.users {
			u := &s.users[i]
			s.prepareReferenceUser(slotIdx, i)
			if slotIdx < int(u.startSlot) || !u.buf.PlaybackComplete() {
				allDone = false
			}
			alloc[i] = 0
		}
		if allDone && !s.cfg.RunFullHorizon && slotIdx > 0 {
			break
		}

		// Outage slots mirror the production engine: zero capacity, no
		// Allocate call, degraded physics in the commit loop below.
		if s.outageAt(slotIdx) {
			slot.CapacityUnits = 0
			res.DegradedSlots++
		} else {
			slot.CapacityUnits = s.capUnits
			s.sched.Allocate(slot, alloc)
			clamps, err := s.enforce(1, 0)
			if err != nil {
				return nil, fmt.Errorf("cell: slot %d: %w", slotIdx, err)
			}
			res.ClampEvents += clamps
		}

		acc := slotAccum{errUser: -1}
		for i := range s.users {
			if _, err := s.commitUserCols(slotIdx, i, res, &acc, s.cols.EnergyPerKB, s.cols.Rate); err != nil {
				return nil, fmt.Errorf("cell: user %d slot %d: %w", i, slotIdx, err)
			}
		}
		st := SlotTotals{
			Fairness:  jain(acc.fairNum, acc.fairDen, acc.fairCount),
			Energy:    acc.energy,
			Rebuffer:  acc.rebuffer,
			UsedUnits: acc.usedUnits,
		}
		if s.cfg.Record != RecordTotals {
			res.PerSlot = append(res.PerSlot, st)
		}
		res.Slots = slotIdx + 1
	}
	res.finalize()
	return res, nil
}

// prepareReferenceUser is the reference arm's prepare of user i for slot
// slotIdx: the signal trace and the required rate evaluated into the arm's
// private Sig and Rate, the engine's prepareColsUser for the dynamic
// columns, and then v, P and the Eq. (1) limit replaced by what the radio
// model's interfaces give — so the differential tests assert that the link
// rows and radio.Link's derivation reproduce this path bitwise.
func (s *Simulator) prepareReferenceUser(slotIdx, i int) {
	sess := s.sessions[i]
	c := &s.cols
	sig := sess.Signal.At(slotIdx)
	c.Sig[i], c.Rate[i] = sig, sess.RateAt(slotIdx)
	active := s.prepareColsUser(slotIdx, i)
	link := s.cfg.Radio.Throughput.Throughput(sig)
	c.LinkRate[i] = link
	c.EnergyPerKB[i] = s.cfg.Radio.Power.EnergyPerKB(sig)
	unit := float64(s.cfg.Unit)
	c.MaxUnits[i] = maxUnitsFor(active, floorUnits(float64(link)*float64(s.cfg.Tau), unit), c.RemainingKB[i], unit)
}
