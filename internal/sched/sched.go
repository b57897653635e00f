// Package sched defines the per-slot scheduling contract of the paper's
// gateway framework and implements the two proposed algorithms — RTMA
// (Alg. 1) and EMA (Alg. 2) — together with the five comparison schedulers
// of the evaluation: Default, Throttling, ON-OFF, SALSA and EStreamer.
//
// Each slot the simulator presents a Slot snapshot: the base station's
// capacity in data units (Definition 1: one unit is δ kilobytes) and, per
// session, one entry in each column of Columns carrying the cross-layer
// parameters the paper's Information Collector gathers — signal strength, achievable throughput
// v(sig), per-byte energy price P(sig), required bit-rate p_i(n), buffer
// occupancy and RRC tail state. A Scheduler fills in the per-user unit
// allocation ϕ_i(n), subject to
//
//	ϕ_i(n) ≤ ⌊τ·v(sig_i(n))/δ⌋        (Eq. 1, per-user link limit)
//	Σ_i ϕ_i(n) ≤ ⌊τ·S(n)/δ⌋          (Eq. 2, base-station capacity)
//
// The simulator and the gateway additionally clamp allocations to these
// constraints (Slot.Clamp), so a buggy scheduler cannot corrupt the
// physics; tests assert the built-in schedulers never rely on that clamp.
package sched

import (
	"fmt"

	"jointstream/internal/units"
)

// Columns carries the per-session views of a slot as struct-of-arrays:
// one column slice per cross-layer field, all indexed by the session
// index. It is the only slot representation — the engine, the gateway
// and every test fixture present slots this way — so the prepare phase
// refreshes a few contiguous arrays in place instead of materializing one
// record per user per slot. The engine normally backs Sig and Rate with
// the precompiled link rows for the slot — zero-copy reslices, never
// copies — and derives LinkRate and EnergyPerKB from Sig through
// radio.Link, rather than calling the signal and radio models per user;
// both paths are bitwise-identical, so schedulers never need to care
// which one fed them.
//
// Aliasing rules (see DESIGN.md §7): columns are written only by the
// owner's prepare/commit phases, never by schedulers, and the LinkTable-
// backed columns are immutable shared state — the engine swaps the slice
// headers each slot rather than writing through them. Schedulers read the
// columns through the Slot accessors (ActiveAt, RateAt, ...).
type Columns struct {
	// Active reports whether the user currently wants data: the session
	// has started and its video is not yet fully delivered. Inactive
	// users must receive zero allocation.
	Active []bool
	// Sig is the slot's signal strength (constant within a slot, §III-B).
	Sig []units.DBm
	// LinkRate is v(sig), the maximum achievable throughput this slot.
	LinkRate []units.KBps
	// EnergyPerKB is P(sig), the per-kilobyte reception cost this slot.
	EnergyPerKB []units.MJ
	// Rate is p_i(n), the required video data rate this slot.
	Rate []units.KBps
	// BufferSec is r_i(n), the playback seconds buffered at slot start.
	BufferSec []units.Seconds
	// RemainingKB is the undelivered remainder of the video.
	RemainingKB []units.KB
	// TailGap is the time since the user's radio last transferred;
	// meaningful only when NeverActive is false.
	TailGap []units.Seconds
	// NeverActive reports that the radio has not transferred yet, so no
	// tail energy is pending regardless of TailGap.
	NeverActive []bool
	// MaxUnits is the binding per-user limit for this slot, already
	// combining Eq. (1) with the remaining video size:
	// min(⌊τ·v/δ⌋, ⌈remaining/δ⌉), zero when inactive. Allocations above
	// it are clamped. Stored as int32 (like the link table's unit limits)
	// to halve the per-slot write bandwidth of the hottest dynamic column.
	MaxUnits []int32
}

// checkLengths reports the first column whose length disagrees with
// MaxUnits (the column NumUsers counts), so a ragged hand-built slot is
// an error from Validate instead of an index panic inside an accessor.
func (c *Columns) checkLengths() error {
	n := len(c.MaxUnits)
	for _, col := range [...]struct {
		name string
		len  int
	}{
		{"Active", len(c.Active)},
		{"Sig", len(c.Sig)},
		{"LinkRate", len(c.LinkRate)},
		{"EnergyPerKB", len(c.EnergyPerKB)},
		{"Rate", len(c.Rate)},
		{"BufferSec", len(c.BufferSec)},
		{"RemainingKB", len(c.RemainingKB)},
		{"TailGap", len(c.TailGap)},
		{"NeverActive", len(c.NeverActive)},
	} {
		if col.len != n {
			return fmt.Errorf("sched: column %s has %d entries, MaxUnits has %d", col.name, col.len, n)
		}
	}
	return nil
}

// Slot is the full scheduling problem for one time slot.
type Slot struct {
	// N is the slot index.
	N int
	// Tau is the slot length τ.
	Tau units.Seconds
	// Unit is the data-unit (shard) size δ in KB.
	Unit units.KB
	// CapacityUnits is ⌊τ·S(n)/δ⌋, the total units the base station can
	// move this slot (Eq. 2).
	CapacityUnits int
	// Cols holds one view per session, column-wise, indexed by session
	// index. All column slices must have equal length (Validate checks
	// it); read them through the accessors.
	Cols *Columns
	// ActiveList, when non-nil, holds the indices of the active users in
	// ascending order. The simulator's engine maintains it so schedulers
	// iterate only the users that want data instead of scanning every
	// user each slot; hand-built slots may leave it nil and schedulers
	// fall back to the scan (see ActiveIndices). An empty non-nil list
	// means no user is active.
	ActiveList []int
}

// NumUsers returns the number of per-user views in the slot.
func (s *Slot) NumUsers() int { return len(s.Cols.MaxUnits) }

// ActiveAt reports whether user i wants data this slot.
func (s *Slot) ActiveAt(i int) bool { return s.Cols.Active[i] }

// SigAt returns user i's signal strength this slot.
func (s *Slot) SigAt(i int) units.DBm { return s.Cols.Sig[i] }

// LinkRateAt returns v(sig_i(n)), user i's achievable throughput.
func (s *Slot) LinkRateAt(i int) units.KBps { return s.Cols.LinkRate[i] }

// EnergyPerKBAt returns P(sig_i(n)), user i's per-kilobyte reception cost.
func (s *Slot) EnergyPerKBAt(i int) units.MJ { return s.Cols.EnergyPerKB[i] }

// RateAt returns p_i(n), user i's required video data rate.
func (s *Slot) RateAt(i int) units.KBps { return s.Cols.Rate[i] }

// BufferSecAt returns r_i(n), user i's buffered playback seconds.
func (s *Slot) BufferSecAt(i int) units.Seconds { return s.Cols.BufferSec[i] }

// RemainingKBAt returns the undelivered remainder of user i's video.
func (s *Slot) RemainingKBAt(i int) units.KB { return s.Cols.RemainingKB[i] }

// TailGapAt returns the time since user i's radio last transferred.
func (s *Slot) TailGapAt(i int) units.Seconds { return s.Cols.TailGap[i] }

// NeverActiveAt reports that user i's radio has not transferred yet.
func (s *Slot) NeverActiveAt(i int) bool { return s.Cols.NeverActive[i] }

// MaxUnitsAt returns user i's binding per-slot unit limit
// min(⌊τ·v/δ⌋, ⌈remaining/δ⌉), zero when inactive.
func (s *Slot) MaxUnitsAt(i int) int { return int(s.Cols.MaxUnits[i]) }

// NeedUnitsAt returns ϕ_need(i) = ⌈τ·p_i(n)/δ⌉, the minimum allocation
// that sustains one slot of smooth playback (RTMA step 3), capped at
// MaxUnitsAt(i).
func (s *Slot) NeedUnitsAt(i int) int {
	need := ceilDiv(float64(s.RateAt(i))*float64(s.Tau), float64(s.Unit))
	if m := s.MaxUnitsAt(i); need > m {
		return m
	}
	return need
}

// ActiveIndices returns the indices of the active users in ascending
// order: ActiveList when the engine provided it, otherwise a scan of
// the Active column collected into *scratch (grown as needed and written
// back, so repeat callers stay allocation-free). scratch may be nil for
// one-shot callers.
func (s *Slot) ActiveIndices(scratch *[]int) []int {
	if s.ActiveList != nil {
		return s.ActiveList
	}
	var buf []int
	if scratch != nil {
		buf = (*scratch)[:0]
	}
	for i, n := 0, s.NumUsers(); i < n; i++ {
		if s.ActiveAt(i) {
			buf = append(buf, i)
		}
	}
	if scratch != nil {
		*scratch = buf
	}
	return buf
}

// Scheduler decides the per-slot allocation. Implementations may keep
// internal per-user state (virtual queues, hysteresis); the simulator
// guarantees Allocate is called exactly once per slot, in slot order, with
// len(alloc) == slot.NumUsers(), alloc zeroed.
type Scheduler interface {
	// Name identifies the algorithm in results and tables.
	Name() string
	// Allocate writes the data-unit allocation ϕ_i(n) into alloc.
	Allocate(slot *Slot, alloc []int)
}

// RowState is implemented by schedulers that keep per-user state indexed
// by row. An engine that reuses rows for new sessions (cell.OpenSim, the
// gateway) calls ResetRow(i) when row i gets a new session, so it starts
// from the state a fresh scheduler would give it, and MoveRow(from, to)
// when compaction moves a session to a lower row.
type RowState interface {
	ResetRow(i int)
	MoveRow(from, to int)
}

// resetRow returns row i of a per-row slice to its initial value, if the
// slice reaches it.
func resetRow[T any](s []T, i int, initial T) {
	if i < len(s) {
		s[i] = initial
	}
}

// moveRow copies row from to row to, reading initial past the slice's end.
func moveRow[T any](s []T, from, to int, initial T) {
	if to >= len(s) {
		return
	}
	if from < len(s) {
		s[to] = s[from]
	} else {
		s[to] = initial
	}
}

// ceilDiv returns ⌈a/b⌉ for positive b, as used by ϕ_need.
func ceilDiv(a, b float64) int {
	if b <= 0 {
		panic(fmt.Sprintf("sched: ceilDiv by non-positive %v", b))
	}
	if a <= 0 {
		return 0
	}
	n := int(a / b)
	if float64(n)*b < a {
		n++
	}
	return n
}

// floorDiv returns ⌊a/b⌋ for positive b, clamped at 0.
func floorDiv(a, b float64) int {
	if b <= 0 {
		panic(fmt.Sprintf("sched: floorDiv by non-positive %v", b))
	}
	if a <= 0 {
		return 0
	}
	return int(a / b)
}

// Clamp forces a finished allocation inside Eq. (1) and Eq. (2) and the
// inactivity rule, and returns how many entries it changed: negative and
// inactive entries go to zero, each entry is capped at MaxUnitsAt, and an
// overflow of CapacityUnits is shed from the highest rows down, so the cut
// is deterministic. It is the one clamp of both serving engines, the
// simulator's non-strict mode and the gateway.
func (s *Slot) Clamp(alloc []int) int {
	clamps := 0
	total := 0
	for i := range alloc {
		// A zero allocation can never violate Eq. (1)/(2) — MaxUnits is
		// never negative and zero adds nothing to the total — so the scan
		// skips the untouched majority without reading the view at all.
		if alloc[i] == 0 {
			continue
		}
		if alloc[i] < 0 || !s.ActiveAt(i) {
			alloc[i] = 0
			clamps++
			continue
		}
		if m := s.MaxUnitsAt(i); alloc[i] > m {
			alloc[i] = m
			clamps++
		}
		total += alloc[i]
	}
	over := total - s.CapacityUnits
	for i := len(alloc) - 1; i >= 0 && over > 0; i-- {
		cut := min(alloc[i], over)
		alloc[i] -= cut
		over -= cut
		if cut > 0 {
			clamps++
		}
	}
	return clamps
}

// Validate checks a finished allocation against Eq. (1) and Eq. (2) and
// the inactivity rule, after checking the slot itself is well-formed
// (every column as long as the user count). The simulator uses it in
// strict mode; tests use it to prove schedulers respect the constraints
// without clamping.
func (s *Slot) Validate(alloc []int) error {
	if err := s.Cols.checkLengths(); err != nil {
		return err
	}
	n := s.NumUsers()
	if len(alloc) != n {
		return fmt.Errorf("sched: allocation length %d != %d users", len(alloc), n)
	}
	total := 0
	for i, a := range alloc {
		if a < 0 {
			return fmt.Errorf("sched: user %d negative allocation %d", i, a)
		}
		if !s.ActiveAt(i) && a > 0 {
			return fmt.Errorf("sched: user %d inactive but allocated %d units", i, a)
		}
		if m := s.MaxUnitsAt(i); a > m {
			return fmt.Errorf("sched: user %d allocation %d exceeds per-user limit %d", i, a, m)
		}
		total += a
	}
	if total > s.CapacityUnits {
		return fmt.Errorf("sched: total allocation %d exceeds capacity %d units", total, s.CapacityUnits)
	}
	if s.ActiveList != nil {
		// An engine-maintained active list must mirror the Active flags
		// exactly, in ascending order — a stale entry would let a
		// scheduler serve (or skip) the wrong user.
		j := 0
		for i := 0; i < n; i++ {
			if !s.ActiveAt(i) {
				continue
			}
			if j >= len(s.ActiveList) || s.ActiveList[j] != i {
				return fmt.Errorf("sched: active list %v inconsistent with Active flags at user %d", s.ActiveList, i)
			}
			j++
		}
		if j != len(s.ActiveList) {
			return fmt.Errorf("sched: active list has %d entries for %d active users", len(s.ActiveList), j)
		}
	}
	return nil
}
