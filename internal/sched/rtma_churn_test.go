package sched_test

import (
	"slices"
	"testing"

	"jointstream/internal/radio"
	"jointstream/internal/rng"
	"jointstream/internal/rrc"
	"jointstream/internal/sched"
	"jointstream/internal/simtest"
	"jointstream/internal/units"
)

// cloneSlot returns an independent copy of the slot: same problem, fresh
// Columns, so writes through one copy's columns never reach the other.
func cloneSlot(slot *sched.Slot) *sched.Slot {
	in := slot.Cols
	out := *slot
	out.Cols = &sched.Columns{
		Active:      slices.Clone(in.Active),
		Sig:         slices.Clone(in.Sig),
		LinkRate:    slices.Clone(in.LinkRate),
		EnergyPerKB: slices.Clone(in.EnergyPerKB),
		Rate:        slices.Clone(in.Rate),
		BufferSec:   slices.Clone(in.BufferSec),
		RemainingKB: slices.Clone(in.RemainingKB),
		TailGap:     slices.Clone(in.TailGap),
		NeverActive: slices.Clone(in.NeverActive),
		MaxUnits:    slices.Clone(in.MaxUnits),
	}
	out.ActiveList = slices.Clone(slot.ActiveList)
	return &out
}

// newChurnRTMA builds an RTMA with the given incremental-order churn
// limit (0 = full sort on any churn, the reference arm; negative = the
// default threshold).
func newChurnRTMA(t testing.TB, limit int) *sched.RTMA {
	t.Helper()
	r, err := sched.NewRTMA(sched.RTMAConfig{
		Budget: 500, Radio: radio.Paper3G(), RRC: rrc.Paper3G(),
	})
	if err != nil {
		t.Fatal(err)
	}
	r.SetChurnLimit(limit)
	return r
}

// mutateChurn rewrites `churn` users' rate/admission fields in both
// column views identically, modelling the engine refreshing dynamic
// columns between slots. Rate changes invalidate the (rate, idx) sort
// key; Active flips add/remove candidates — together they drive the
// incremental order's repair-vs-resort decision.
func mutateChurn(src *rng.Source, a, b *sched.Columns, n, churn int) {
	for c := 0; c < churn; c++ {
		i := src.Intn(n)
		switch src.Intn(3) {
		case 0:
			r := units.KBps(src.Uniform(100, 700))
			a.Rate[i], b.Rate[i] = r, r
		case 1:
			act := src.Bool(0.8)
			a.Active[i], b.Active[i] = act, act
		default:
			m := int32(src.Intn(40))
			a.MaxUnits[i], b.MaxUnits[i] = m, m
			rem := units.KB(float64(m)*100 + src.Uniform(0, 1e6))
			a.RemainingKB[i], b.RemainingKB[i] = rem, rem
		}
	}
}

// FuzzRTMAChurn fuzzes the incremental smallest-rate-first order across
// the churn-threshold boundary: an RTMA with an arbitrary churn limit
// must allocate identically to the full-sort arm (limit 0) on every slot
// of a mutating sequence, because the (rate, idx) key is a strict total
// order and the repaired sequence is therefore unique. The seeds bracket
// the default threshold max(8, candidates/8) on both sides.
//
// Run the smoke mode locally with:
//
//	go test -fuzz=FuzzRTMAChurn -fuzztime=30s ./internal/sched
func FuzzRTMAChurn(f *testing.F) {
	f.Add(uint64(1), int8(0), uint8(8))
	f.Add(uint64(2), int8(1), uint8(12))
	f.Add(uint64(3), int8(7), uint8(12))
	f.Add(uint64(4), int8(8), uint8(12))
	f.Add(uint64(5), int8(9), uint8(12))
	f.Add(uint64(6), int8(-1), uint8(16))
	f.Add(uint64(7), int8(127), uint8(20))

	f.Fuzz(func(t *testing.T, seed uint64, limit int8, nSlots uint8) {
		src := rng.New(seed)
		n := 4 + src.Intn(24)
		slots := 1 + int(nSlots)%24
		inc := newChurnRTMA(t, int(limit))
		ref := newChurnRTMA(t, 0)

		slotA := simtest.RandomSlot(src, n, src.Intn(220))
		slotB := cloneSlot(slotA)
		a1 := make([]int, n)
		a2 := make([]int, n)
		for s := 0; s < slots; s++ {
			slotA.N, slotB.N = s, s
			inc.Allocate(slotA, a1)
			ref.Allocate(slotB, a2)
			if !slices.Equal(a1, a2) {
				t.Fatalf("slot %d (limit %d): incremental alloc %v != full-sort alloc %v", s, limit, a1, a2)
			}
			if err := simtest.CheckAllocation(slotA, a1); err != nil {
				t.Fatalf("slot %d: %v", s, err)
			}
			// Churn spans [0, n]: below, at, and above the default
			// threshold max(8, candidates/8).
			mutateChurn(src, slotA.Cols, slotB.Cols, n, src.Intn(n+1))
		}
	})
}
