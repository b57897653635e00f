// Package abr implements client-side adaptive-bitrate selection, the
// streaming behaviour the paper's introduction motivates (YouTube/Netflix
// players) but its model fixes to a constant required rate. The extension
// lets the evaluation ask how the gateway schedulers interact with a
// rate-adaptive player: the player picks each segment's bitrate from its
// buffer level, while the gateway decides how many units it receives.
//
// The controller is the buffer-based algorithm of Huang et al. (BBA,
// SIGCOMM 2014): below a reservoir of buffered playback the player pins
// the lowest rung; above a cushion it pins the highest; in between the
// rate rises linearly with the buffer. BBA needs no throughput prediction,
// which keeps the extension orthogonal to the gateway's own cross-layer
// machinery.
package abr

import (
	"fmt"
	"sort"

	"jointstream/internal/units"
)

// Ladder is the ascending set of available bitrates.
type Ladder []units.KBps

// newLadder validates and sorts the rungs.
func newLadder(rates ...units.KBps) (Ladder, error) {
	if len(rates) == 0 {
		return nil, fmt.Errorf("abr: empty ladder")
	}
	l := make(Ladder, len(rates))
	copy(l, rates)
	sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	for i, r := range l {
		if r <= 0 {
			return nil, fmt.Errorf("abr: non-positive rung %v", r)
		}
		if i > 0 && l[i] == l[i-1] {
			return nil, fmt.Errorf("abr: duplicate rung %v", r)
		}
	}
	return l, nil
}

// Min and Max return the edge rungs.
func (l Ladder) Min() units.KBps { return l[0] }

// Max returns the top rung.
func (l Ladder) Max() units.KBps { return l[len(l)-1] }

// defaultLadder mirrors a typical 2015-era mobile ladder spanning the
// paper's 300–600 KB/s demand range.
func defaultLadder() Ladder {
	l, err := newLadder(150, 300, 450, 600, 750)
	if err != nil {
		panic("abr: default ladder invalid: " + err.Error())
	}
	return l
}

// Config parameterizes the BBA map.
type Config struct {
	Ladder Ladder
	// ReservoirSec pins the minimum rate below this buffer level.
	ReservoirSec units.Seconds
	// CushionSec pins the maximum rate above this buffer level.
	CushionSec units.Seconds
	// MaxBufferSec caps how much playback the player will hold: requests
	// pause once the buffer reaches it (every real player bounds its
	// buffer; without the cap a fast link would prefetch the whole video
	// at startup quality before the adaptation loop can react).
	MaxBufferSec units.Seconds
}

// DefaultConfig returns BBA with a 10 s reservoir, 40 s cushion and a
// 60 s buffer cap.
func DefaultConfig() Config {
	return Config{Ladder: defaultLadder(), ReservoirSec: 10, CushionSec: 40, MaxBufferSec: 60}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if len(c.Ladder) == 0 {
		return fmt.Errorf("abr: empty ladder")
	}
	for i, r := range c.Ladder {
		if r <= 0 {
			return fmt.Errorf("abr: non-positive rung %v", r)
		}
		if i > 0 && c.Ladder[i] <= c.Ladder[i-1] {
			return fmt.Errorf("abr: ladder not strictly ascending at rung %d", i)
		}
	}
	if c.ReservoirSec < 0 || c.CushionSec <= c.ReservoirSec {
		return fmt.Errorf("abr: invalid reservoir/cushion %v/%v", c.ReservoirSec, c.CushionSec)
	}
	if c.MaxBufferSec < c.CushionSec {
		return fmt.Errorf("abr: buffer cap %v below cushion %v", c.MaxBufferSec, c.CushionSec)
	}
	return nil
}

// WantSeconds returns how much additional playback time the player is
// willing to request given its current buffer (zero at the cap).
func (c Config) WantSeconds(buffer units.Seconds) units.Seconds {
	want := c.MaxBufferSec - buffer
	if want < 0 {
		return 0
	}
	return want
}

// Controller holds one player's adaptation state.
type Controller struct {
	cfg Config
	// current is the last selected rung index; BBA's rate map plus
	// one-rung-per-decision smoothing avoids oscillation.
	current int
}

// NewController validates cfg and returns a controller starting at the
// lowest rung (conservative startup).
func NewController(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Controller{cfg: cfg}, nil
}

// target returns the BBA map's raw rung index for a buffer level.
func (c *Controller) target(buffer units.Seconds) int {
	cfg := c.cfg
	switch {
	case buffer <= cfg.ReservoirSec:
		return 0
	case buffer >= cfg.CushionSec:
		return len(cfg.Ladder) - 1
	default:
		frac := float64(buffer-cfg.ReservoirSec) / float64(cfg.CushionSec-cfg.ReservoirSec)
		idx := int(frac * float64(len(cfg.Ladder)-1))
		if idx >= len(cfg.Ladder) {
			idx = len(cfg.Ladder) - 1
		}
		return idx
	}
}

// Pick selects the bitrate for the next slot given the current buffer
// occupancy. Transitions move at most one rung per call, the standard
// smoothing against quality flapping.
func (c *Controller) Pick(buffer units.Seconds) units.KBps {
	t := c.target(buffer)
	switch {
	case t > c.current:
		c.current++
	case t < c.current:
		c.current--
	}
	return c.cfg.Ladder[c.current]
}

// Current returns the last selected rate without advancing.
func (c *Controller) Current() units.KBps { return c.cfg.Ladder[c.current] }

// Reset returns the controller to its freshly-constructed state (the
// lowest rung). The open-system engine recycles one controller per table
// slot across admissions instead of allocating a new one per session;
// the only mutable state is the rung index, so a reset controller is
// indistinguishable from NewController's.
func (c *Controller) Reset() { c.current = 0 }
