// Arrival processes: the open-system extension of the paper's closed
// N-user batch. Config.MeanInterarrival's exponential staggering —
// previously a one-shot offset loop inside Generate — is now the Poisson
// member of a reusable ArrivalProcess family (Poisson/trace/burst) shared
// by batch generation, the extension experiments and the churn benchmark.
// The default path stays byte-identical: PoissonArrivals draws the exact
// same src.Exp at the exact same sequence point Generate always did.
package workload

import (
	"fmt"
	"math"

	"jointstream/internal/rng"
	"jointstream/internal/signal"
	"jointstream/internal/units"
)

// ArrivalProcess produces the slot gap between consecutive user
// arrivals. NextGap(i, src) is the gap between arrival i-1 and arrival
// i (called only for i >= 1), drawing any randomness it needs from src;
// deterministic processes must not touch src so traces replay exactly.
// Returned gaps are clamped to be non-negative by every caller.
type ArrivalProcess interface {
	NextGap(i int, src *rng.Source) int
}

// PoissonArrivals is the paper-extension staggering Generate has always
// had: exponential interarrival times with the given mean, rounded up to
// whole slots. It reproduces the historical Config.MeanInterarrival
// behavior bit-for-bit (same Exp draw, same ceil).
type PoissonArrivals struct {
	// MeanInterarrival is the mean gap in slots (as a duration in slot
	// units, matching Config.MeanInterarrival).
	MeanInterarrival units.Seconds
}

// NextGap draws ceil(Exp(1/mean)) slots.
func (p PoissonArrivals) NextGap(i int, src *rng.Source) int {
	if p.MeanInterarrival <= 0 {
		return 0
	}
	return int(math.Ceil(src.Exp(1 / float64(p.MeanInterarrival))))
}

// TraceArrivals replays recorded absolute start slots: user i starts at
// StartSlots[i]. Users beyond the trace arrive with the trace's final
// gap repeated (a flat tail keeps arbitrary-N workloads valid against a
// finite trace). It draws no randomness.
type TraceArrivals struct {
	StartSlots []int
}

// NextGap returns StartSlots[i] − StartSlots[i−1] (never negative), or
// the final recorded gap for users past the end of the trace.
func (t TraceArrivals) NextGap(i int, _ *rng.Source) int {
	n := len(t.StartSlots)
	if n < 2 {
		return 0
	}
	if i >= n {
		i = n - 1
	}
	g := t.StartSlots[i] - t.StartSlots[i-1]
	if g < 0 {
		g = 0
	}
	return g
}

// BurstArrivals models flash-crowd admission: users arrive in bursts of
// Size simultaneous joins, with GapSlots slots between consecutive
// bursts. It draws no randomness.
type BurstArrivals struct {
	// Size is the number of users per burst (>= 1).
	Size int
	// GapSlots is the gap between bursts.
	GapSlots int
}

// NextGap returns GapSlots at each burst boundary and 0 within a burst.
func (b BurstArrivals) NextGap(i int, _ *rng.Source) int {
	size := b.Size
	if size < 1 {
		size = 1
	}
	if i%size == 0 {
		return b.GapSlots
	}
	return 0
}

// ChurnGen draws sessions one at a time for open-system serving, where
// the user population is unbounded and sessions are created at admission
// rather than generated as a batch. Each Next draws size, rate and a
// channel trace with the same distributions Generate uses; the phase is
// drawn uniformly per user (a batch can spread phases evenly over a
// known N — an open system cannot).
type ChurnGen struct {
	cfg Config
	src *rng.Source
}

// NewChurnGen validates the distribution parameters of c (Users is
// ignored — the population is open) and returns a generator drawing from
// src.
func NewChurnGen(c Config, src *rng.Source) (*ChurnGen, error) {
	probe := c
	probe.Users = 1
	if err := probe.Validate(); err != nil {
		return nil, err
	}
	return &ChurnGen{cfg: c, src: src}, nil
}

// Next draws the next arriving session with the given user ID and start
// slot.
func (g *ChurnGen) Next(id, startSlot int) (*Session, error) {
	c := &g.cfg
	size := units.KB(g.src.Uniform(float64(c.SizeMin), float64(c.SizeMax)))
	rate := units.KBps(g.src.Uniform(float64(c.RateMin), float64(c.RateMax)))
	sigCfg := c.Signal
	sigCfg.Phase = g.src.Uniform(0, 2*math.Pi)
	tr, err := signal.NewStatelessSine(sigCfg, g.src.Uint64())
	if err != nil {
		return nil, fmt.Errorf("workload: churn user %d signal: %w", id, err)
	}
	s := &Session{
		ID:         id,
		Size:       size,
		BaseRate:   rate,
		RateJitter: units.KBps(c.RateJitterFrac * float64(rate)),
		StartSlot:  startSlot,
		Signal:     tr,
	}
	if s.RateJitter > 0 {
		s.rates = &rateSeq{src: g.src.Split()}
	}
	return s, nil
}
