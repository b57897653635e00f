package cell

import (
	"context"
	"fmt"
	"runtime/pprof"
	"slices"

	"jointstream/internal/pool"
)

// This file implements the production tick engine: each slot splits into
//
//	prepare  — refresh the slot's per-user columns (sharded, parallel)
//	schedule — one Allocate call plus Eq. (1)/(2) enforcement (serial)
//	commit   — apply energy/buffer/RRC physics and totals (sharded)
//
// and iterates only the live users (started, not retired), so runs where
// most sessions finish early stop paying O(N) per slot. Determinism is
// preserved by construction: the shard layout is a function of the live
// count and Config.ShardSize only — never of Config.Workers — every
// shard confines its writes to its own users and accumulators, and the
// per-shard partial sums are reduced in shard order. Any worker count
// therefore produces a byte-identical Result; RunReference keeps the
// original full-scan serial loop — same columns, same per-user prepare and
// commit, the physics evaluated through the interfaces, none of the live
// list, shards, fusion or link window — as the differential reference.
//
// One further structural optimization lives here (see DESIGN.md §10):
// fused commit+prepare. Commit of slot n and prepare of slot n+1 read and
// write the same per-user state but have no cross-user dependencies, so
// the engine runs them as one pass — each user is committed for slot n and
// immediately prepared for slot n+1, touching its state once per slot
// instead of twice. Per-user the operation order is exactly
// commit(n);prepare(n+1), which equals the phase-separated engine because
// neither phase reads another user's state. Users admitted at n+1 (absent
// from slot n's live list) are patched in by admit; users retired at n are
// prepared wastefully and then re-zeroed by dropRetired, exactly as the
// phase-separated engine leaves them.

// Run executes the simulation and returns the collected result: exactly
// Start + Advance(MaxSlots) + Finish, so a run advanced in epoch-sized
// chunks produces a byte-identical Result. OpenSim.Run takes a context.
func (s *Simulator) Run() (*Result, error) {
	if err := s.Start(context.Background()); err != nil {
		return nil, err
	}
	if _, err := s.Advance(s.cfg.MaxSlots); err != nil {
		return nil, err
	}
	return s.Finish(), nil
}

// Start begins a stepped run: the caller then drives the slot clock with
// Advance and collects the Result with Finish. The deploy package's
// epoch-clocked fleet runner uses this to tick hundreds of cells in
// lockstep without dedicating a goroutine (or a full-horizon loop) to
// each. Like Run, a Simulator is single-use: Start consumes it.
func (s *Simulator) Start(ctx context.Context) error {
	if err := s.begin(); err != nil {
		return err
	}
	s.curRes = s.newResult()
	s.colsSlot = -1

	// Phase attribution for -cpuprofile: one labeled context per phase,
	// created once per run (pprof.Do would allocate per call).
	// SetGoroutineLabels is allocation-free, and pool.Shard spawns its
	// workers after the label is set, so shard goroutines inherit the
	// current phase label. The fused pass gets its own label: its samples
	// are commit(n) and prepare(n+1) work combined.
	s.lblPrep = pprof.WithLabels(ctx, pprof.Labels("phase", "prepare"))
	s.lblSched = pprof.WithLabels(ctx, pprof.Labels("phase", "schedule"))
	s.lblCommit = pprof.WithLabels(ctx, pprof.Labels("phase", "commit"))
	s.lblFused = pprof.WithLabels(ctx, pprof.Labels("phase", "fused"))

	// The shard bodies are method values bound once here: a closure literal
	// inside the slot loop would capture the slot index and allocate a fresh
	// func value every slot, breaking the steady-state zero-allocation
	// guarantee.
	s.prepFn = s.prepareShardBody
	s.commFn = s.commitShardBody
	s.fusedFn = s.fusedShardBody
	s.clampFn = s.clampShardBody

	s.stepCtx, s.stepDoneCh = ctx, ctx.Done()
	s.nextSlot = 0
	s.stepDone = false
	return nil
}

// Advance ticks the run up to (but not including) slot upto, clamped to
// the horizon, and reports whether the run is over — the horizon was
// reached or every session finished. It checks the Start context at the
// top of every slot (by a lock-free poll of its Done channel): a
// cancelled context makes it return ctx.Err() promptly, within one slot's
// work, and restores the caller's pprof labels before returning
// so epoch-driving goroutines don't keep a phase label between epochs. It
// parks a link window whose borrowed block it has left behind. Calling
// Advance again after done=true is a no-op returning done=true.
func (s *Simulator) Advance(upto int) (bool, error) {
	if s.stepCtx == nil {
		return false, fmt.Errorf("cell: Advance without Start")
	}
	defer pprof.SetGoroutineLabels(s.stepCtx)
	if upto > s.cfg.MaxSlots {
		upto = s.cfg.MaxSlots
	}
	s.stepUpto = upto
	for !s.stepDone && s.nextSlot < upto {
		select {
		case <-s.stepDoneCh:
			s.win.stop()
			return false, fmt.Errorf("cell: run cancelled at slot %d: %w", s.nextSlot, s.stepCtx.Err())
		default:
		}
		done, err := s.tickSlot(s.nextSlot)
		if err != nil {
			s.win.stop()
			return false, err
		}
		if done {
			s.stepDone = true
			break
		}
		s.nextSlot++
	}
	if s.nextSlot >= s.cfg.MaxSlots {
		s.stepDone = true
	}
	s.win.park(s.nextSlot)
	return s.stepDone, nil
}

// Finish clips the per-slot series, if recorded, to the slots the run
// ticked, pads the per-user series, finalizes and returns the Result of a
// stepped run. Call it once Advance reports done (calling earlier
// finalizes the slots ticked so far, which is only meaningful for tests).
func (s *Simulator) Finish() *Result {
	s.stepCtx = nil
	s.win.stop()
	res := s.curRes
	if cap(res.PerSlot) > len(res.PerSlot) {
		// Ended early: one copy into an exact-length series, so the Result
		// does not hold the horizon-sized one the tick appended into. (The
		// make-then-copy form skips zeroing what the copy overwrites.)
		clipped := make([]SlotTotals, len(res.PerSlot))
		copy(clipped, res.PerSlot)
		res.PerSlot = clipped
	}
	s.padSamples(res)
	res.finalize()
	return res
}

// smallNSerialCutoff is the live-user count below which the tick phases
// run serially regardless of Config.Workers: dispatching goroutines
// through the shard pool costs more than the work itself (measured by
// BenchmarkShardCrossover in internal/pool — the goroutine handoff only
// amortizes in the thousands-of-users range). The shard *layout* is
// untouched, so the serial path reduces the identical partial sums and
// the Result stays byte-identical.
const smallNSerialCutoff = 2048

// runWorkers resolves the worker count for one slot's sharded phases.
func (s *Simulator) runWorkers(live int) int {
	if live < smallNSerialCutoff {
		return 1
	}
	return s.workers
}

// tickSlot advances the run by one slot: admission, the prepare phase
// (unless the previous slot's fused pass already prepared this slot),
// scheduling, the fused commit+prepare (or plain commit on the final
// slot), and the shard-ordered reduction. It returns done=true when the
// run is over (every session finished before this slot).
func (s *Simulator) tickSlot(slotIdx int) (bool, error) {
	res := s.curRes
	s.admit(slotIdx, res)
	if s.unfinished == 0 && !s.cfg.RunFullHorizon && slotIdx > 0 {
		return true, nil
	}
	s.slot.N = slotIdx
	shards := s.shardCount(len(s.live))
	s.ensureShardScratch(shards)
	s.curSlot, s.curShards, s.curLive = slotIdx, shards, s.live
	s.curDense = len(s.live) == len(s.users)
	workers := s.runWorkers(len(s.live))

	// Phase 1: prepare. Re-alias Sig and Rate to this slot's link-window
	// rows (two slice-header writes), then each shard derives its users'
	// physics, refreshes their dynamic columns in place and collects its
	// segment of the active list. Skipped entirely when the previous
	// slot's fused pass already prepared this slot.
	if s.colsSlot != slotIdx {
		pprof.SetGoroutineLabels(s.lblPrep)
		s.attachSlotColumns(slotIdx)
		s.stageActive()
		pool.Shard(workers, shards, s.prepFn)
		s.collectActive(shards)
	}
	s.slot.ActiveList = s.activeBuf

	pprof.SetGoroutineLabels(s.lblSched)
	// Phase 2: schedule. One Allocate per slot, by contract serial.
	// An outage slot has zero capacity: the scheduler is not consulted
	// (alloc is already zeroed by prepare) and the commit phase applies
	// the degraded physics — buffers drain, rebuffering and tail energy
	// accrue. Users stay live, so service resumes by itself when the
	// window closes.
	if s.outageAt(slotIdx) {
		s.slot.CapacityUnits = 0
		res.DegradedSlots++
	} else {
		s.slot.CapacityUnits = s.capUnits
		s.sched.Allocate(&s.slot, s.alloc)
		clamps, err := s.enforce(workers, shards)
		if err != nil {
			return false, fmt.Errorf("cell: slot %d: %w", slotIdx, err)
		}
		res.ClampEvents += clamps
	}

	// Phase 3: commit — fused with the next slot's prepare whenever a
	// next slot exists. This slot's price and rate columns are pinned
	// first (the commit half prices this slot's deliveries with them),
	// then the column view moves on to slot n+1 and each shard commits
	// and re-prepares its users in one pass — except where the Advance ends
	// and its window parks: the next block is not borrowed before the
	// caller's barrier, and the next Advance prepares its first slot.
	if slotIdx+1 < s.cfg.MaxSlots && !(slotIdx+1 == s.stepUpto && s.win.parks(slotIdx+1)) {
		pprof.SetGoroutineLabels(s.lblFused)
		s.pinPrevColumns(slotIdx + 1)
		s.attachSlotColumns(slotIdx + 1)
		s.stageActive()
		pool.Shard(workers, shards, s.fusedFn)
		s.collectActive(shards)
		s.colsSlot = slotIdx + 1
	} else {
		pprof.SetGoroutineLabels(s.lblCommit)
		pool.Shard(workers, shards, s.commFn)
	}

	// Reduce in shard order: identical addition sequence regardless of
	// worker count, and — with one shard — identical to the reference
	// engine's flat per-user accumulation.
	st := SlotTotals{}
	var fairNum, fairDen float64
	var fairCount, retires int
	for sh := 0; sh < shards; sh++ {
		acc := &s.shardAcc[sh]
		if acc.err != nil {
			return false, fmt.Errorf("cell: user %d slot %d: %w", acc.errUser, slotIdx, acc.err)
		}
		st.Rebuffer += acc.rebuffer
		st.Energy += acc.energy
		st.UsedUnits += acc.usedUnits
		fairNum += acc.fairNum
		fairDen += acc.fairDen
		fairCount += acc.fairCount
		s.unfinished -= acc.completions
		retires += len(s.shardRet[sh])
	}
	st.Fairness = jain(fairNum, fairDen, fairCount)
	if s.cfg.Record != RecordTotals {
		res.PerSlot = append(res.PerSlot, st)
	}
	if s.foldSlot != nil {
		s.foldSlot(slotIdx, st)
	}
	res.Slots = slotIdx + 1
	if retires > 0 {
		s.dropRetired(shards)
	}
	return false, nil
}

// pinPrevColumns pins this slot's price and rate columns for the fused
// pass before attachSlotColumns moves the view on to slot next. The price
// column is engine-owned and has a twin: the two swap, so the pass's
// prepare half derives slot next's prices into the one its commit half
// does not read. The rate pin is a zero-copy alias of the current column —
// rows of the resident link block stay put while it is resident, and
// under ABR the fused kernel's per-user read-commit-then-write-prepare
// order protects the engine-owned array.
// Aliasing breaks exactly when attaching slot next evicts the resident
// block: its rows go to the next fill and would be overwritten before the
// commit half reads them, so the rate row is copied into engine scratch
// first, once per window crossing, bitwise.
func (s *Simulator) pinPrevColumns(next int) {
	s.prevEpkb = s.cols.EnergyPerKB
	s.cols.EnergyPerKB, s.epkbAlt = s.epkbAlt, s.prevEpkb
	s.prevRate = s.cols.Rate
	if s.cfg.ABR == nil && s.win.willEvict(next) {
		s.prevRateBuf = append(s.prevRateBuf[:0], s.cols.Rate...)
		s.prevRate = s.prevRateBuf
	}
}

// enforce applies Eq. (1)/(2) — Slot.Validate in Strict mode, else
// Slot.Clamp — and returns how many entries it clamped. On more than one
// worker Clamp's per-entry pass runs sharded, its overflow shed serial.
func (s *Simulator) enforce(workers, shards int) (int, error) {
	if s.cfg.Strict {
		return 0, s.slot.Validate(s.alloc)
	}
	if workers == 1 {
		return s.slot.Clamp(s.alloc), nil
	}
	pool.Shard(workers, shards, s.clampFn)
	clamps, total := 0, 0
	for sh := 0; sh < shards; sh++ {
		clamps += s.shardAcc[sh].clamps
		total += s.shardAcc[sh].usedUnits
	}
	return clamps + s.slot.Shed(s.alloc, total), nil
}

// stageActive sizes the slot's active list to the live count: each shard
// body writes its active segment straight into it, at its live offset.
func (s *Simulator) stageActive() {
	s.activeBuf = slices.Grow(s.activeBuf[:0], len(s.live))[:len(s.live)]
}

// collectActive closes the gaps stageActive's segments leave, in shard
// order — ascending user index, because the live list is sorted and
// shards cover consecutive ranges of it. A segment moves only once an
// earlier shard had an inactive user.
func (s *Simulator) collectActive(shards int) {
	n := 0
	for sh := 0; sh < shards; sh++ {
		lo, _ := shardBounds(sh, shards, len(s.curLive))
		k := s.shardAcc[sh].active
		if n != lo {
			copy(s.activeBuf[n:], s.activeBuf[lo:lo+k])
		}
		n += k
	}
	s.activeBuf = s.activeBuf[:n]
}

// admit moves users whose StartSlot has arrived from pending onto the
// live list. Late joiners are backfilled with the zero samples the
// full-scan engine would have recorded for their pre-start slots; when
// the slot's columns were already prepared by the previous slot's fused
// pass (which ran before these users were live), their column entries
// are patched in and the active list gains them. The slot's whole batch
// joins each list in one merge — O(batch + entries shifted), so the closed
// engine's all-at-slot-0 admission is an append and a churn slot's hundred
// arrivals cost one pass over the list, not a hundred.
func (s *Simulator) admit(slotIdx int, res *Result) {
	head := s.pendHead
	for s.pendHead < len(s.pending) && int(s.users[s.pending[s.pendHead]].startSlot) <= slotIdx {
		s.pendHead++
	}
	// The drained segment is dead storage from here on: it is sorted by
	// index in place (pending is ordered by start slot first) and then
	// reused to collect the batch's active users.
	batch := s.pending[head:s.pendHead]
	slices.Sort(batch)
	s.live = mergeSorted(s.live, batch)
	if s.cfg.Record == RecordUserSlots {
		for _, i := range batch {
			for len(res.RebufferSamples[i]) < slotIdx {
				res.RebufferSamples[i] = append(res.RebufferSamples[i], 0)
				res.EnergySamples[i] = append(res.EnergySamples[i], 0)
			}
		}
	}
	if s.colsSlot == slotIdx {
		act := batch[:0]
		for _, i := range batch {
			if s.prepareColsUser(slotIdx, i) {
				act = append(act, i)
			}
			s.alloc[i] = 0
		}
		s.activeBuf = mergeSorted(s.activeBuf, act)
	}
	if s.pendHead == len(s.pending) && s.pendHead > 0 {
		// Drained: rewind to the array's head so the storage is reused.
		s.pending = s.pending[:0]
		s.pendHead = 0
	}
}

// mergeSorted merges ascending add into ascending xs in place, from the
// back: only the entries of xs above add's smallest move. The two lists
// are disjoint.
func mergeSorted(xs, add []int) []int {
	i := len(xs) - 1
	xs = append(xs, add...)
	for w, j := len(xs)-1, len(add)-1; j >= 0; w-- {
		if i >= 0 && xs[i] > add[j] {
			xs[w] = xs[i]
			i--
		} else {
			xs[w] = add[j]
			j--
		}
	}
	return xs
}

// dropRetired compacts the live list, zeroing retired users' dynamic
// columns and allocations so a stale Active flag can never leak into a
// later slot's scheduling. Only the engine-owned dynamic columns are
// touched — Sig and Rate may alias a shared link table and must never be
// written through. A retired user's row is never read
// again, so the link window stops filling it. For the open engine the
// dropped users are also logged, so its reap folds exactly them instead
// of rescanning the table. The shards recorded the retired users'
// positions in the live list, ascending, so no live user's state is read.
func (s *Simulator) dropRetired(shards int) {
	c := &s.cols
	w, from := -1, 0 // w: next write position, -1 until the first gap
	for sh := 0; sh < shards; sh++ {
		for _, p := range s.shardRet[sh] {
			i := s.live[p]
			if s.retiredLog != nil {
				s.retiredLog = append(s.retiredLog, i)
			}
			s.win.dropRow(i)
			c.Active[i] = false
			c.BufferSec[i] = 0
			c.RemainingKB[i] = 0
			c.TailGap[i] = 0
			c.NeverActive[i] = false
			c.MaxUnits[i] = 0
			s.alloc[i] = 0
			if w < 0 {
				w = p
			} else {
				w += copy(s.live[w:], s.live[from:p])
			}
			from = p + 1
		}
	}
	if w >= 0 {
		w += copy(s.live[w:], s.live[from:])
		s.live = s.live[:w]
	}
}

// padSamples extends every recorded series to the final slot count with
// the zeros the full-scan engine would have written for retired and
// never-started users.
func (s *Simulator) padSamples(res *Result) {
	if s.cfg.Record != RecordUserSlots {
		return
	}
	for i := range s.users {
		for len(res.RebufferSamples[i]) < res.Slots {
			res.RebufferSamples[i] = append(res.RebufferSamples[i], 0)
		}
		for len(res.EnergySamples[i]) < res.Slots {
			res.EnergySamples[i] = append(res.EnergySamples[i], 0)
		}
	}
}

// shardCount returns the slot's shard count: ⌈live/shardSize⌉. It is a
// function of the live-user count only, so worker count never changes
// the summation grouping.
func (s *Simulator) shardCount(live int) int {
	if live == 0 {
		return 0
	}
	return (live + s.shardSize - 1) / s.shardSize
}

// shardBounds returns shard sh's half-open [lo, hi) range over n live
// users, splitting as evenly as possible (the first n%shards shards get
// one extra user).
func shardBounds(sh, shards, n int) (int, int) {
	base, rem := n/shards, n%shards
	lo := sh*base + min(sh, rem)
	hi := lo + base
	if sh < rem {
		hi++
	}
	return lo, hi
}

// ensureShardScratch sizes the per-shard scratch for this slot. A shard's
// retirement list starts with room for a whole shard (the table, while it
// is smaller), so retiring does not allocate in the tick.
func (s *Simulator) ensureShardScratch(shards int) {
	for len(s.shardAcc) < shards {
		s.shardAcc = append(s.shardAcc, slotAccum{})
	}
	for len(s.shardRet) < shards {
		s.shardRet = append(s.shardRet, make([]int, 0, min(s.shardSize, len(s.users))))
	}
}
