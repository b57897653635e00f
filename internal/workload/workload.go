// Package workload generates the multi-user video streaming demand the
// simulator schedules: per-user video sessions (size and required bit-rate)
// and per-user channel traces.
//
// The paper's evaluation (§VI) uses N users who all start at slot 0, video
// sizes uniform in [250, 500] MB, required data rates uniform in
// [300, 600] KB/s (optionally varying over time — "the video bit rate
// changes over time but remains same in a slot"), and per-user sine signal
// traces distinguished by phase shifts. This package reproduces that setup
// and adds staggered (Poisson) arrivals as an extension scenario.
package workload

import (
	"fmt"
	"math"
	"runtime"

	"jointstream/internal/pool"
	"jointstream/internal/rng"
	"jointstream/internal/signal"
	"jointstream/internal/units"
)

// Session describes one user's streaming demand.
type Session struct {
	// ID is the user index within the workload.
	ID int
	// Size is the total video size.
	Size units.KB
	// BaseRate is the nominal required data rate p_i.
	BaseRate units.KBps
	// RateJitter is the amplitude of slot-to-slot variation of the
	// required rate (0 for constant bit-rate sessions).
	RateJitter units.KBps
	// StartSlot is the slot at which the user joins (0 in the paper).
	StartSlot int
	// Signal is the user's channel trace.
	Signal signal.Trace

	rates *rateSeq
}

// Duration returns the total playback time M_i implied by size and the
// nominal rate.
func (s *Session) Duration() units.Seconds {
	return units.Seconds(float64(s.Size) / float64(s.BaseRate))
}

// RateAt returns the required data rate p_i(n) for slot n. With zero
// jitter it is the constant BaseRate; otherwise the rate wanders within
// [BaseRate−Jitter, BaseRate+Jitter], constant within a slot, floored at
// 1 KB/s.
func (s *Session) RateAt(n int) units.KBps {
	if s.RateJitter == 0 || s.rates == nil {
		return s.BaseRate
	}
	return s.rates.at(n, s.BaseRate, s.RateJitter)
}

// Prewarm extends the session's memos — a Markov signal trace's values,
// the VBR rate draws — over the first `slots` slots with one exactly-sized
// allocation each; the values are the same with or without it.
func (s *Session) Prewarm(slots int) {
	if p, ok := s.Signal.(signal.Prewarmer); ok {
		p.Prewarm(slots)
	}
	if s.rates != nil && slots > 0 {
		s.rates.grow(slots, s.BaseRate, s.RateJitter)
	}
}

// PrewarmAll prewarms every session to the slot horizon, fanning the
// sessions across at most `workers` goroutines (<= 0: every core; 1:
// serially), drawn from the pool's worker budget. Each session owns its
// memos and rng streams, so the values are those of a serial loop.
func PrewarmAll(workers int, sessions []*Session, slots int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pool.Shard(workers, len(sessions), func(i int) {
		sessions[i].Prewarm(slots)
	})
}

// rateSeq memoizes per-slot rate draws so RateAt is repeatable.
type rateSeq struct {
	src  *rng.Source
	vals []units.KBps
}

// grow extends the memo to n values with one exactly-sized allocation.
func (r *rateSeq) grow(n int, base, jitter units.KBps) {
	if n <= len(r.vals) {
		return
	}
	if cap(r.vals) < n {
		vals := make([]units.KBps, len(r.vals), n)
		copy(vals, r.vals)
		r.vals = vals
	}
	r.at(n-1, base, jitter)
}

func (r *rateSeq) at(n int, base, jitter units.KBps) units.KBps {
	for len(r.vals) <= n {
		v := base + units.KBps(r.src.Uniform(-float64(jitter), float64(jitter)))
		if v < 1 {
			v = 1
		}
		r.vals = append(r.vals, v)
	}
	return r.vals[n]
}

// Config parameterizes workload generation.
type Config struct {
	// Users is the number of concurrent streaming sessions N.
	Users int
	// SizeMin and SizeMax bound the uniform video-size draw.
	SizeMin, SizeMax units.KB
	// RateMin and RateMax bound the uniform required-rate draw.
	RateMin, RateMax units.KBps
	// RateJitterFrac, if nonzero, makes sessions variable-bit-rate with
	// jitter amplitude RateJitterFrac×BaseRate.
	RateJitterFrac float64
	// Signal configures the per-user channel traces. Phase shifts are
	// spread evenly over [0, 2π) with a random per-user offset, following
	// the paper's "different phase shifts for the N sine functions".
	Signal signal.SineConfig
	// MeanInterarrival, if positive, staggers user start slots with
	// exponential interarrival times rounded up to whole slots (extension;
	// the paper starts all users at slot 0).
	MeanInterarrival units.Seconds
	// StatelessSignal has no effect, kept for callers that set it: every
	// trace is signal.NewStatelessSine, a pure function of (seed, slot).
	StatelessSignal bool
}

// PaperDefaults returns the §VI evaluation configuration for N users:
// sizes U(250,500) MB, rates U(300,600) KB/s, sine channel over
// [−110,−50] dBm with 30 dBm noise intensity.
func PaperDefaults(users int) Config {
	return Config{
		Users:   users,
		SizeMin: 250 * units.Megabyte,
		SizeMax: 500 * units.Megabyte,
		RateMin: 300,
		RateMax: 600,
		Signal: signal.SineConfig{
			Bounds:      signal.DefaultBounds,
			PeriodSlots: 600,
			NoiseStdDBm: 30, // the paper's 30 dBm white-noise intensity, read as sigma
		},
	}
}

// WithAvgSize returns a copy of c whose size range is centered on avg with
// the same relative half-width as the paper's default (±125/375 ≈ ±33%).
// The paper's Fig. 4b/8b sweeps "data amount" this way.
func (c Config) WithAvgSize(avg units.KB) Config {
	halfFrac := 1.0 / 3.0
	c.SizeMin = units.KB(float64(avg) * (1 - halfFrac))
	c.SizeMax = units.KB(float64(avg) * (1 + halfFrac))
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Users <= 0 {
		return fmt.Errorf("workload: need at least one user, got %d", c.Users)
	}
	if c.SizeMin <= 0 || c.SizeMax < c.SizeMin {
		return fmt.Errorf("workload: invalid size range [%v, %v]", c.SizeMin, c.SizeMax)
	}
	if c.RateMin <= 0 || c.RateMax < c.RateMin {
		return fmt.Errorf("workload: invalid rate range [%v, %v]", c.RateMin, c.RateMax)
	}
	if c.RateJitterFrac < 0 || c.RateJitterFrac >= 1 {
		return fmt.Errorf("workload: rate jitter fraction %v outside [0,1)", c.RateJitterFrac)
	}
	if c.MeanInterarrival < 0 {
		return fmt.Errorf("workload: negative interarrival %v", c.MeanInterarrival)
	}
	return nil
}

// Generate draws the N sessions of the workload deterministically from src.
func Generate(c Config, src *rng.Source) ([]*Session, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	sessions := make([]*Session, c.Users)
	phaseOffset := src.Uniform(0, 2*math.Pi)
	start := 0
	for i := range sessions {
		size := units.KB(src.Uniform(float64(c.SizeMin), float64(c.SizeMax)))
		rate := units.KBps(src.Uniform(float64(c.RateMin), float64(c.RateMax)))
		sigCfg := c.Signal
		sigCfg.Phase = phaseOffset + 2*math.Pi*float64(i)/float64(c.Users)
		tr, err := signal.NewStatelessSine(sigCfg, src.Uint64())
		if err != nil {
			return nil, fmt.Errorf("workload: user %d signal: %w", i, err)
		}
		// The gap is drawn after the user's signal seed; the workload
		// golden (TestNonSignalDrawsGolden) pins that order.
		if c.MeanInterarrival > 0 && i > 0 {
			start += int(math.Ceil(src.Exp(1 / float64(c.MeanInterarrival))))
		}
		s := &Session{
			ID:         i,
			Size:       size,
			BaseRate:   rate,
			RateJitter: units.KBps(c.RateJitterFrac * float64(rate)),
			StartSlot:  start,
			Signal:     tr,
		}
		if s.RateJitter > 0 {
			s.rates = &rateSeq{src: src.Split()}
		}
		sessions[i] = s
	}
	return sessions, nil
}
