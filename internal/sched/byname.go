package sched

import (
	"fmt"

	"jointstream/internal/radio"
	"jointstream/internal/rrc"
	"jointstream/internal/units"
)

// Names is the set of schedulers ByName builds, as the commands spell them.
const Names = "default|throttling|onoff|salsa|estreamer|propfair|ema|rtma"

// Params carries what ByName's schedulers need from the caller: RTMA's
// energy budget Φ, EMA's Lyapunov weight V, and the cell's radio and tail
// models.
type Params struct {
	Budget units.MJ
	V      float64
	Radio  radio.Model
	RRC    rrc.Profile
}

// ByName builds a fresh scheduler from its name in Names. It is the one
// place the baselines' settings live: Throttling paces at 1.25× the
// encoding rate, ON-OFF plays between 10 and 40 s of buffer, SALSA forces
// transfers under 15 s with a 0.3 channel average, EStreamer bursts to
// 30 s and resumes at 5 s (after Hoque et al.), and PropFair averages over
// 100 slots.
func ByName(name string, p Params) (Scheduler, error) {
	switch name {
	case "default":
		return NewDefault(), nil
	case "throttling":
		return NewThrottling(1.25)
	case "onoff":
		return NewOnOff(10, 40)
	case "salsa":
		return NewSALSA(15, 0.3)
	case "estreamer":
		return NewEStreamer(30, 5)
	case "propfair":
		return NewProportionalFair(100)
	case "ema":
		return NewEMA(EMAConfig{V: p.V, RRC: p.RRC})
	case "rtma":
		return NewRTMA(RTMAConfig{Budget: p.Budget, Radio: p.Radio, RRC: p.RRC})
	}
	return nil, fmt.Errorf("unknown scheduler %q", name)
}
