package sched

import (
	"slices"
	"testing"

	"jointstream/internal/units"
)

// user is one row of a hand-built test slot: the per-session fields a
// test sets by name before makeSlot transposes the rows into the slot's
// Columns. Test-only — production code fills columns directly.
type user struct {
	Active      bool
	Sig         units.DBm
	LinkRate    units.KBps
	EnergyPerKB units.MJ
	Rate        units.KBps
	BufferSec   units.Seconds
	RemainingKB units.KB
	TailGap     units.Seconds
	NeverActive bool
	MaxUnits    int
}

// makeSlot builds a synthetic slot with the given per-user parameters,
// user i of the slot being the i-th argument. All users are active with
// generous remaining bytes unless modified.
func makeSlot(capacityUnits int, users ...user) *Slot {
	n := len(users)
	c := &Columns{
		Active:      make([]bool, n),
		Sig:         make([]units.DBm, n),
		LinkRate:    make([]units.KBps, n),
		EnergyPerKB: make([]units.MJ, n),
		Rate:        make([]units.KBps, n),
		BufferSec:   make([]units.Seconds, n),
		RemainingKB: make([]units.KB, n),
		TailGap:     make([]units.Seconds, n),
		NeverActive: make([]bool, n),
		MaxUnits:    make([]int32, n),
	}
	for i, u := range users {
		c.Active[i] = u.Active
		c.Sig[i] = u.Sig
		c.LinkRate[i] = u.LinkRate
		c.EnergyPerKB[i] = u.EnergyPerKB
		c.Rate[i] = u.Rate
		c.BufferSec[i] = u.BufferSec
		c.RemainingKB[i] = u.RemainingKB
		c.TailGap[i] = u.TailGap
		c.NeverActive[i] = u.NeverActive
		c.MaxUnits[i] = int32(u.MaxUnits)
	}
	return &Slot{
		N:             0,
		Tau:           1,
		Unit:          100,
		CapacityUnits: capacityUnits,
		Cols:          c,
	}
}

// stdUser returns an active user with sensible defaults.
func stdUser(rate units.KBps, sig units.DBm, maxUnits int) user {
	return user{
		Active:      true,
		Sig:         sig,
		LinkRate:    units.KBps(65.8*float64(sig) + 7567),
		EnergyPerKB: units.MJ(-0.167 + 1560/(65.8*float64(sig)+7567)),
		Rate:        rate,
		RemainingKB: 1e9,
		MaxUnits:    maxUnits,
		NeverActive: true,
	}
}

func TestNeedUnits(t *testing.T) {
	slot := makeSlot(0, user{Rate: 450, MaxUnits: 100})
	c := slot.Cols
	// ceil(450*1/100) = 5
	if got := slot.needUnitsAt(0); got != 5 {
		t.Errorf("needUnitsAt = %d, want 5", got)
	}
	c.Rate[0] = 400
	if got := slot.needUnitsAt(0); got != 4 {
		t.Errorf("needUnitsAt(400) = %d, want 4", got)
	}
	c.MaxUnits[0] = 2
	if got := slot.needUnitsAt(0); got != 2 {
		t.Errorf("needUnitsAt capped = %d, want 2", got)
	}
	c.Rate[0] = 0
	c.MaxUnits[0] = 100
	if got := slot.needUnitsAt(0); got != 0 {
		t.Errorf("needUnitsAt(0) = %d, want 0", got)
	}
}

func TestCeilFloorDiv(t *testing.T) {
	if ceilDiv(450, 100) != 5 || ceilDiv(400, 100) != 4 || ceilDiv(0, 100) != 0 {
		t.Error("ceilDiv mismatch")
	}
}

func TestCeilDivPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ceilDiv(1, 0)
}

// TestValidateAllocation: Validate rejects each kind of violation; Clamp
// repairs each with one change (an overflow is cut from the highest row)
// and leaves a valid allocation alone.
func TestValidateAllocation(t *testing.T) {
	slot := makeSlot(10, stdUser(400, -70, 6), stdUser(400, -70, 6))
	valid := []int{4, 4}
	if err := slot.Validate(valid); err != nil {
		t.Errorf("valid allocation rejected: %v", err)
	}
	if n := slot.Clamp(valid); n != 0 || !slices.Equal(valid, []int{4, 4}) {
		t.Errorf("Clamp changed a valid allocation: %d clamps, %v", n, valid)
	}
	if err := slot.Validate([]int{4}); err == nil {
		t.Error("wrong length accepted")
	}
	cases := []struct {
		name           string
		alloc, clamped []int
		inactive       bool // user 1 does not want data
	}{
		{"negative", []int{-1, 4}, []int{0, 4}, false},
		{"over per-user", []int{7, 0}, []int{6, 0}, false},
		{"over capacity", []int{6, 6}, []int{6, 4}, false},
		{"inactive", []int{4, 1}, []int{4, 0}, true},
	}
	for _, c := range cases {
		slot.Cols.Active[1] = !c.inactive
		if err := slot.Validate(c.alloc); err == nil {
			t.Errorf("%s accepted", c.name)
		}
		if n := slot.Clamp(c.alloc); n != 1 || !slices.Equal(c.alloc, c.clamped) {
			t.Errorf("%s: Clamp made %d changes to %v, want 1 to %v", c.name, n, c.alloc, c.clamped)
		}
		if err := slot.Validate(c.alloc); err != nil {
			t.Errorf("%s: clamped allocation rejected: %v", c.name, err)
		}
	}
}

// TestClampShardedMatchesSerial: the cell engine's multi-worker clamp —
// ClampRange over consecutive shard ranges, their counts and totals
// summed, then one Shed — equals the serial Clamp entry for entry and in
// its count, on allocations over capacity and with negative, inactive and
// over-limit entries. No built-in scheduler produces these in a workload
// run, so this is where the split is exercised.
func TestClampShardedMatchesSerial(t *testing.T) {
	users := make([]user, 12)
	for i := range users {
		users[i] = stdUser(400, -70, 3+i%4)
		users[i].Active = i%5 != 2
	}
	slot := makeSlot(20, users...)
	cases := [][]int{
		{3, 3, 0, 4, 5, 6, 3, 4, 5, 6, 3, 4},    // over capacity only
		{-2, 1, 0, 1, 1, 1, 0, 1, 1, 1, 1, 1},   // a negative entry
		{1, 1, 2, 1, 1, 1, 0, 2, 1, 1, 1, 1},    // inactive users 2 and 7 allocated
		{9, -1, 4, 9, 0, 9, 9, 0, 9, -3, 9, 9},  // all of it at once
		{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},    // nothing to do
		{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 99},   // one row over everything
		{5, 5, 5, 5, -5, 5, 5, 5, 5, 5, 5, 5},   // shed runs down several rows
		{6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6},    // every entry over its limit
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, // ascending
		{12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, // descending
		{-1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1},
	}
	for c, alloc := range cases {
		want := slices.Clone(alloc)
		wantN := slot.Clamp(want)
		for _, bounds := range [][]int{{0, 12}, {0, 5, 12}, {0, 1, 2, 7, 12}, {0, 3, 6, 9, 12}, {0, 0, 11, 12}} {
			got := slices.Clone(alloc)
			n, total := 0, 0
			for k := 0; k+1 < len(bounds); k++ {
				cl, tot := slot.ClampRange(got, bounds[k], bounds[k+1])
				n += cl
				total += tot
			}
			n += slot.Shed(got, total)
			if n != wantN || !slices.Equal(got, want) {
				t.Errorf("case %d, shards %v: %d changes to %v, serial Clamp %d to %v", c, bounds, n, got, wantN, want)
			}
		}
		if wantN == 0 && !slices.Equal(want, alloc) {
			t.Errorf("case %d: Clamp changed %v to %v and counted nothing", c, alloc, want)
		}
	}
}

// TestValidateRaggedColumns: a hand-built slot whose columns disagree in
// length is an error from Validate — never an index panic inside an
// accessor — whichever column is the odd one out.
func TestValidateRaggedColumns(t *testing.T) {
	cases := []struct {
		name string
		chop func(c *Columns)
	}{
		{"Active", func(c *Columns) { c.Active = c.Active[:1] }},
		{"Sig", func(c *Columns) { c.Sig = c.Sig[:1] }},
		{"LinkRate", func(c *Columns) { c.LinkRate = c.LinkRate[:1] }},
		{"EnergyPerKB", func(c *Columns) { c.EnergyPerKB = c.EnergyPerKB[:1] }},
		{"Rate", func(c *Columns) { c.Rate = c.Rate[:1] }},
		{"BufferSec", func(c *Columns) { c.BufferSec = c.BufferSec[:1] }},
		{"RemainingKB", func(c *Columns) { c.RemainingKB = c.RemainingKB[:1] }},
		{"TailGap", func(c *Columns) { c.TailGap = c.TailGap[:1] }},
		{"NeverActive", func(c *Columns) { c.NeverActive = nil }},
		{"MaxUnits", func(c *Columns) { c.MaxUnits = c.MaxUnits[:1] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			slot := makeSlot(10, stdUser(400, -70, 6), stdUser(400, -70, 6))
			tc.chop(slot.Cols)
			// The allocation length matches whichever count a caller could
			// have read, so only the ragged column can be at fault.
			for _, alloc := range [][]int{{4, 4}, {4}} {
				if err := slot.Validate(alloc); err == nil {
					t.Errorf("ragged %s column accepted with %d-entry allocation", tc.name, len(alloc))
				}
			}
		})
	}
}

func TestDefaultGreedyOrder(t *testing.T) {
	d := NewDefault()
	slot := makeSlot(10, stdUser(400, -70, 8), stdUser(400, -70, 8), stdUser(400, -70, 8))
	alloc := make([]int, 3)
	d.Allocate(slot, alloc)
	if err := slot.Validate(alloc); err != nil {
		t.Fatalf("Default violated constraints: %v", err)
	}
	// Greedy: user 0 gets its full link bound, user 1 the rest, user 2 nothing.
	if alloc[0] != 8 || alloc[1] != 2 || alloc[2] != 0 {
		t.Errorf("alloc = %v, want [8 2 0]", alloc)
	}
}

func TestDefaultSkipsInactive(t *testing.T) {
	d := NewDefault()
	u0 := stdUser(400, -70, 8)
	u0.Active = false
	slot := makeSlot(10, u0, stdUser(400, -70, 8))
	alloc := make([]int, 2)
	d.Allocate(slot, alloc)
	if alloc[0] != 0 {
		t.Errorf("inactive user allocated %d", alloc[0])
	}
	if alloc[1] != 8 {
		t.Errorf("active user allocated %d, want 8", alloc[1])
	}
}

func TestDefaultName(t *testing.T) {
	if NewDefault().Name() != "Default" {
		t.Error("name mismatch")
	}
}
