package workload

import (
	"fmt"
	"math"

	"jointstream/internal/rng"
	"jointstream/internal/signal"
	"jointstream/internal/units"
)

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
