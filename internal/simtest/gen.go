package simtest

import (
	"fmt"

	"jointstream/internal/radio"
	"jointstream/internal/rng"
	"jointstream/internal/sched"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// newColumns allocates the ten per-user columns of an n-user slot.
func newColumns(n int) *sched.Columns {
	return &sched.Columns{
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
}

// randomUser draws user i's entry of every column, with the paper's 3G
// radio pricing its channel: signal uniform in [−110, −50] dBm, required
// rate uniform in [100, 700] KB/s, random buffer occupancy and RRC tail
// state. Roughly one user in eight is inactive (with a nonzero link
// bound, so "inactive ⇒ zero allocation" is actually exercised), and one
// in sixteen has a zero link bound.
func randomUser(src *rng.Source, c *sched.Columns, i int) {
	m := radio.Paper3G()
	sig := units.DBm(src.Uniform(-110, -50))
	c.Active[i] = true
	c.Sig[i] = sig
	c.LinkRate[i] = m.Throughput.Throughput(sig)
	c.EnergyPerKB[i] = m.Power.EnergyPerKB(sig)
	c.Rate[i] = units.KBps(src.Uniform(100, 700))
	c.BufferSec[i] = units.Seconds(src.Uniform(0, 45))
	c.NeverActive[i] = true
	maxUnits := 1 + src.Intn(40)
	if src.Bool(0.5) {
		c.NeverActive[i] = false
		c.TailGap[i] = units.Seconds(src.Uniform(0, 10))
	}
	if src.Bool(0.0625) {
		maxUnits = 0
	}
	if src.Bool(0.125) {
		c.Active[i] = false
	}
	c.MaxUnits[i] = int32(maxUnits)
	c.RemainingKB[i] = units.KB(float64(maxUnits)*100 + src.Uniform(0, 1e6))
}

// RandomSlot draws a scheduling problem with n users and the given
// capacity in units (τ = 1 s, δ = 100 KB, the paper's defaults). The
// columns are owned by the caller — mutating them between Allocate calls
// models the engine refreshing its dynamic columns in place. ActiveList
// is left nil, so schedulers take their scan fallback.
func RandomSlot(src *rng.Source, n, capacity int) *sched.Slot {
	s := &sched.Slot{
		Tau:           1,
		Unit:          100,
		CapacityUnits: capacity,
		Cols:          newColumns(n),
	}
	for i := 0; i < n; i++ {
		randomUser(src, s.Cols, i)
	}
	return s
}

// PermuteSlot returns the slot with users reordered by perm — position
// pos of the result is user perm[pos] of the input — exactly as the
// simulator would present the same physical users under a different
// session numbering. perm must be a permutation of [0, slot.NumUsers()).
func PermuteSlot(slot *sched.Slot, perm []int) (*sched.Slot, error) {
	n := slot.NumUsers()
	if len(perm) != n {
		return nil, fmt.Errorf("simtest: permutation length %d != %d users", len(perm), n)
	}
	seen := make([]bool, n)
	in, c := slot.Cols, newColumns(n)
	for pos, from := range perm {
		if from < 0 || from >= n || seen[from] {
			return nil, fmt.Errorf("simtest: invalid permutation %v", perm)
		}
		seen[from] = true
		c.Active[pos] = in.Active[from]
		c.Sig[pos] = in.Sig[from]
		c.LinkRate[pos] = in.LinkRate[from]
		c.EnergyPerKB[pos] = in.EnergyPerKB[from]
		c.Rate[pos] = in.Rate[from]
		c.BufferSec[pos] = in.BufferSec[from]
		c.RemainingKB[pos] = in.RemainingKB[from]
		c.TailGap[pos] = in.TailGap[from]
		c.NeverActive[pos] = in.NeverActive[from]
		c.MaxUnits[pos] = in.MaxUnits[from]
	}
	return &sched.Slot{
		N:             slot.N,
		Tau:           slot.Tau,
		Unit:          slot.Unit,
		CapacityUnits: slot.CapacityUnits,
		Cols:          c,
	}, nil
}

// TotalUnits sums an allocation.
func TotalUnits(alloc []int) int {
	total := 0
	for _, a := range alloc {
		total += a
	}
	return total
}

// SmallWorkload generates a miniature but fully paper-shaped workload —
// sine channels with noise, uniform sizes and rates — scaled down so a
// full simulation finishes in milliseconds. Deterministic in seed.
func SmallWorkload(seed uint64, users int) ([]*workload.Session, error) {
	cfg := workload.PaperDefaults(users)
	cfg.SizeMin = 2 * units.Megabyte
	cfg.SizeMax = 5 * units.Megabyte
	cfg.Signal.PeriodSlots = 60
	return workload.Generate(cfg, rng.New(seed))
}

// StaggeredWorkload is SmallWorkload with Poisson arrivals: users join
// with exponential interarrival times of the given mean instead of all
// starting at slot 0, so runs exercise the engine's admission path and
// finish with staggered completions. Deterministic in seed.
func StaggeredWorkload(seed uint64, users int, meanInterarrival units.Seconds) ([]*workload.Session, error) {
	cfg := workload.PaperDefaults(users)
	cfg.SizeMin = 2 * units.Megabyte
	cfg.SizeMax = 5 * units.Megabyte
	cfg.Signal.PeriodSlots = 60
	cfg.MeanInterarrival = meanInterarrival
	return workload.Generate(cfg, rng.New(seed))
}
