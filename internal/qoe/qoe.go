// Package qoe scores streaming sessions with the standard linear
// quality-of-experience model used throughout the ABR literature (Yin et
// al., SIGCOMM 2015 — the "MPC" objective):
//
//	QoE = Σ q(R_k)  −  λ·Σ |q(R_{k+1}) − q(R_k)|  −  μ·T_rebuffer  −  μs·T_startup
//
// i.e. reward delivered quality, penalize quality flapping, stalls and
// startup delay. The paper under reproduction optimizes only the stall
// term; this package lets the extension experiments report how the
// schedulers trade the *other* QoE components too.
package qoe

import (
	"fmt"

	"jointstream/internal/cell"
	"jointstream/internal/units"
)

// Weights parameterizes the linear model. Quality enters normalized to
// the reference rate (so a session playing at RefRate scores 1 point per
// played slot before penalties).
type Weights struct {
	// RefRate normalizes quality: q(R) = R / RefRate.
	RefRate units.KBps
	// Lambda scales the quality-switch penalty.
	Lambda float64
	// Mu scales the rebuffering penalty in points per stalled second.
	Mu float64
	// MuStartup scales the startup-delay penalty in points per second.
	MuStartup float64
}

// DefaultWeights follows the common MPC parameterization: switches cost
// one quality unit, each stalled second costs as much as 3 s of
// reference-quality playback, startup half that.
func DefaultWeights(ref units.KBps) Weights {
	return Weights{RefRate: ref, Lambda: 1, Mu: 3, MuStartup: 1.5}
}

// validate checks the weights.
func (w Weights) validate() error {
	if w.RefRate <= 0 {
		return fmt.Errorf("qoe: non-positive reference rate %v", w.RefRate)
	}
	if w.Lambda < 0 || w.Mu < 0 || w.MuStartup < 0 {
		return fmt.Errorf("qoe: negative penalty weight")
	}
	return nil
}

// Session is the per-session input to the score.
type Session struct {
	// MeanQuality is the average selected bitrate while playing.
	MeanQuality units.KBps
	// PlayedSlots is the number of slots the session spent playing.
	PlayedSlots int
	// Switches counts quality changes.
	Switches int
	// Rebuffer is the total stall time (excluding startup).
	Rebuffer units.Seconds
	// Startup is the initial join delay.
	Startup units.Seconds
}

// score evaluates the linear model for one session.
func (w Weights) score(s Session) (float64, error) {
	if err := w.validate(); err != nil {
		return 0, err
	}
	if s.PlayedSlots < 0 || s.Switches < 0 || s.Rebuffer < 0 || s.Startup < 0 {
		return 0, fmt.Errorf("qoe: negative session component %+v", s)
	}
	quality := float64(s.MeanQuality) / float64(w.RefRate) * float64(s.PlayedSlots)
	score := quality -
		w.Lambda*float64(s.Switches) -
		w.Mu*float64(s.Rebuffer) -
		w.MuStartup*float64(s.Startup)
	return score, nil
}

// fromUser converts a simulator per-user record into a Session. The
// startup delay is approximated by the user's first-slot stall behaviour:
// the paper's model always stalls the very first slot (shards become
// playable one slot later), so one slot of the recorded rebuffering is
// attributed to startup when any rebuffering occurred.
func fromUser(u cell.UserTotals, tau units.Seconds) Session {
	startup := units.Seconds(0)
	reb := u.Rebuffer
	if reb >= tau {
		startup = tau
		reb -= tau
	}
	return Session{
		MeanQuality: u.MeanQuality(),
		PlayedSlots: u.QualitySlots,
		Switches:    u.QualitySwitches,
		Rebuffer:    reb,
		Startup:     startup,
	}
}

// MeanScore scores every user of a result and returns the average.
func MeanScore(w Weights, res *cell.Result, tau units.Seconds) (float64, error) {
	if res == nil || len(res.Users) == 0 {
		return 0, fmt.Errorf("qoe: empty result")
	}
	var sum float64
	for _, u := range res.Users {
		s, err := w.score(fromUser(u, tau))
		if err != nil {
			return 0, err
		}
		sum += s
	}
	return sum / float64(len(res.Users)), nil
}
