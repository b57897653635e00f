package workload

import (
	"encoding/json"
	"fmt"
	"io"

	"jointstream/internal/rng"
	"jointstream/internal/signal"
	"jointstream/internal/units"
)

// Spec is a hand-written or exported workload description: explicit
// per-user sessions instead of the statistical generator, so measured
// traces and regression scenarios can be replayed exactly. The JSON shape:
//
//	{
//	  "users": [
//	    {"size_mb": 350, "rate_kbps": 450, "start_slot": 0,
//	     "signal": {"kind": "constant", "level_dbm": -70}},
//	    {"size_mb": 120, "rate_kbps": 300,
//	     "signal": {"kind": "sine", "period_slots": 600, "phase": 1.57,
//	                "noise_db": 30, "seed": 7}},
//	    {"size_mb": 80, "rate_kbps": 600,
//	     "signal": {"kind": "trace", "values_dbm": [-60, -70, -80]}}
//	  ]
//	}
type Spec struct {
	Users []UserSpec `json:"users"`
}

// UserSpec describes one session.
type UserSpec struct {
	SizeMB    float64    `json:"size_mb"`
	RateKBps  float64    `json:"rate_kbps"`
	StartSlot int        `json:"start_slot,omitempty"`
	Signal    SignalSpec `json:"signal"`
}

// SignalSpec selects and parameterizes the channel model.
type SignalSpec struct {
	// Kind is one of "constant", "sine", "walk", "trace".
	Kind string `json:"kind"`
	// LevelDBm parameterizes "constant" (and is the start of "walk").
	LevelDBm float64 `json:"level_dbm,omitempty"`
	// PeriodSlots, Phase and NoiseDB parameterize "sine".
	PeriodSlots int     `json:"period_slots,omitempty"`
	Phase       float64 `json:"phase,omitempty"`
	NoiseDB     float64 `json:"noise_db,omitempty"`
	// StepDB parameterizes "walk".
	StepDB float64 `json:"step_db,omitempty"`
	// Seed drives the stochastic kinds deterministically.
	Seed uint64 `json:"seed,omitempty"`
	// ValuesDBm parameterizes "trace" (replayed verbatim, last value
	// held).
	ValuesDBm []float64 `json:"values_dbm,omitempty"`
}

// ReadSpec parses a JSON workload spec.
func ReadSpec(r io.Reader) (*Spec, error) {
	var spec Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("workload: decode spec: %w", err)
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	return &spec, nil
}

// validate checks the spec.
func (s *Spec) validate() error {
	if len(s.Users) == 0 {
		return fmt.Errorf("workload: spec has no users")
	}
	for i, u := range s.Users {
		if u.SizeMB <= 0 {
			return fmt.Errorf("workload: user %d: non-positive size %v MB", i, u.SizeMB)
		}
		if u.RateKBps <= 0 {
			return fmt.Errorf("workload: user %d: non-positive rate %v", i, u.RateKBps)
		}
		if u.StartSlot < 0 {
			return fmt.Errorf("workload: user %d: negative start slot %d", i, u.StartSlot)
		}
		switch u.Signal.Kind {
		case "constant", "sine", "walk", "trace":
		default:
			return fmt.Errorf("workload: user %d: unknown signal kind %q", i, u.Signal.Kind)
		}
		if u.Signal.Kind == "trace" && len(u.Signal.ValuesDBm) == 0 {
			return fmt.Errorf("workload: user %d: trace signal without values", i)
		}
	}
	return nil
}

// Sessions materializes the spec into simulator sessions.
func (s *Spec) Sessions() ([]*Session, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	out := make([]*Session, len(s.Users))
	for i, u := range s.Users {
		tr, err := u.Signal.trace()
		if err != nil {
			return nil, fmt.Errorf("workload: user %d: %w", i, err)
		}
		out[i] = &Session{
			ID:        i,
			Size:      units.KB(u.SizeMB * 1000),
			BaseRate:  units.KBps(u.RateKBps),
			StartSlot: u.StartSlot,
			Signal:    tr,
		}
	}
	return out, nil
}

func (sp SignalSpec) trace() (signal.Trace, error) {
	switch sp.Kind {
	case "constant":
		return signal.Constant(units.DBm(sp.LevelDBm), signal.DefaultBounds), nil
	case "sine":
		period := sp.PeriodSlots
		if period == 0 {
			period = 600
		}
		return signal.NewStatelessSine(signal.SineConfig{
			Bounds:      signal.DefaultBounds,
			PeriodSlots: period,
			Phase:       sp.Phase,
			NoiseStdDBm: sp.NoiseDB,
		}, rngFor(sp.Seed).Uint64())
	case "walk":
		step := sp.StepDB
		if step == 0 {
			step = 3
		}
		return signal.NewRandomWalk(signal.RandomWalkConfig{
			Bounds:  signal.DefaultBounds,
			Start:   units.DBm(sp.LevelDBm),
			StepStd: step,
		}, rngFor(sp.Seed))
	case "trace":
		vals := make([]units.DBm, len(sp.ValuesDBm))
		for i, v := range sp.ValuesDBm {
			vals[i] = units.DBm(v)
		}
		return signal.FromSlice(vals)
	default:
		return nil, fmt.Errorf("unknown signal kind %q", sp.Kind)
	}
}

// rngFor builds a deterministic source for a spec seed (0 means seed 1 so
// the zero value still reproduces).
func rngFor(seed uint64) *rng.Source {
	if seed == 0 {
		seed = 1
	}
	return rng.New(seed)
}
