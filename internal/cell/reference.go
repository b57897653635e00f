package cell

import (
	"context"
	"fmt"

	"jointstream/internal/units"
)

// RunReference executes the simulation with the original full-scan
// serial engine: every slot prepares, schedules and commits all N users
// in index order — physics evaluated analytically through the signal and
// radio interfaces (never the link table), flat (unsharded) accumulation,
// and a nil ActiveList so schedulers take their scan fallback. It runs on
// the same slot columns and the same per-user prepare/commit as Run; what
// it keeps independent is everything the engine adds around them — live
// list, shards, fused pass, dense kernels, table windows. It is the
// reference arm of the engine differential tests in internal/simtest —
// Run must reproduce its Result bit for bit whenever the shard layout is
// a single shard (live users ≤ ShardSize), and match it up to float
// reassociation otherwise. Production callers use Run.
func (s *Simulator) RunReference() (*Result, error) {
	return s.RunReferenceCtx(context.Background())
}

// RunReferenceCtx is RunReference with the same per-slot cancellation
// checkpoint as RunCtx.
func (s *Simulator) RunReferenceCtx(ctx context.Context) (*Result, error) {
	if err := s.begin(); err != nil {
		return nil, err
	}
	res := s.newResult()
	slot := &s.slot
	alloc := s.alloc
	slot.ActiveList = nil // schedulers exercise their full-scan fallback

	// The reference arm evaluates the physics analytically into columns it
	// owns for the run. With a link window attached newSim left Sig and
	// Rate for attachSlotColumns to alias onto the window's rows; those may
	// be a shared immutable Config.Link, so the arm never writes through
	// such an alias — it takes private columns instead and leaves s.win
	// unread (a sliding window is never filled, nor a goroutine started).
	// A table run's New left the sessions to the table, which extends their
	// memos as it fills: they are extended here for good, under the table's
	// lock, before this arm reads them beside the table's readers.
	if s.win != nil {
		if t := s.win.table; t != nil {
			t.prewarmFor(s.sessions)
		}
		s.cols.Sig = make([]units.DBm, len(s.users))
		s.cols.Rate = make([]units.KBps, len(s.users))
	}

	for slotIdx := 0; slotIdx < s.cfg.MaxSlots; slotIdx++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("cell: run cancelled at slot %d: %w", slotIdx, err)
		}
		slot.N = slotIdx
		allDone := true
		for i := range s.users {
			u := &s.users[i]
			// Analytic-only prepare (tabled=false): the reference arm always
			// evaluates the signal and radio models through the interfaces,
			// so the differential tests assert the flattened table
			// reproduces the interface path bitwise.
			s.prepareColsUser(false, slotIdx, i)
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
			clamps, err := s.enforce(slot, alloc)
			if err != nil {
				return nil, fmt.Errorf("cell: slot %d: %w", slotIdx, err)
			}
			res.ClampEvents += clamps
		}

		acc := slotAccum{errUser: -1}
		for i := range s.users {
			if err := s.commitUserCols(slotIdx, i, res, &acc, s.cols.EnergyPerKB, s.cols.Rate); err != nil {
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
