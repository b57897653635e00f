package sched

import (
	"fmt"

	"jointstream/internal/units"
)

// Throttling reimplements the server-side pacing baseline of Hoque et al.
// (MobiCom 2013), cited as [15]: the server "delivers the video contents
// at a rate that is lower than the bulk transfer capacity but higher than
// the encoding rate", keeping every user's transfer continuous. Each slot
// every active user receives ⌈factor·p_i·τ/δ⌉ units, clamped by link and
// capacity in index order.
type Throttling struct {
	factor float64
	act    []int // activeIndices fallback scratch
}

// NewThrottling builds the throttling baseline; factor must be ≥ 1 (the
// stream must at least keep up with the encoding rate). The classical
// YouTube-style setting is 1.25.
func NewThrottling(factor float64) (*Throttling, error) {
	if factor < 1 {
		return nil, fmt.Errorf("throttling: factor %v < 1 would starve playback", factor)
	}
	return &Throttling{factor: factor}, nil
}

// Name implements Scheduler.
func (*Throttling) Name() string { return "Throttling" }

// Allocate implements Scheduler.
func (t *Throttling) Allocate(slot *Slot, alloc []int) {
	remaining := slot.CapacityUnits
	for _, i := range slot.activeIndices(&t.act) {
		if remaining == 0 {
			break
		}
		want := ceilDiv(t.factor*float64(slot.RateAt(i))*float64(slot.Tau), float64(slot.Unit))
		if m := slot.MaxUnitsAt(i); want > m {
			want = m
		}
		if want > remaining {
			want = remaining
		}
		alloc[i] = want
		remaining -= want
	}
}

// OnOff reimplements the ON-OFF client behaviour of YouTube/Dailymotion/
// Vimeo Android players as dissected by Hoque et al. (WoWMoM 2013), cited
// as [14]: the player reads from the socket at full speed (ON) until the
// buffer reaches a high watermark, then stops reading (OFF) until the
// buffer drains to a low watermark. During OFF no data moves but the radio
// still rides its tail — the paper's canonical tail-energy waster.
type OnOff struct {
	lowSec, highSec units.Seconds
	on              []bool
	act             []int // activeIndices fallback scratch
}

// NewOnOff builds the ON-OFF baseline with the given buffer watermarks in
// playback seconds.
func NewOnOff(lowSec, highSec units.Seconds) (*OnOff, error) {
	if lowSec < 0 || highSec <= lowSec {
		return nil, fmt.Errorf("onoff: invalid watermarks low=%v high=%v", lowSec, highSec)
	}
	return &OnOff{lowSec: lowSec, highSec: highSec}, nil
}

// Name implements Scheduler.
func (*OnOff) Name() string { return "ON-OFF" }

// ResetRow and MoveRow implement RowState: players start in ON.
func (o *OnOff) ResetRow(i int)       { resetRow(o.on, i, true) }
func (o *OnOff) MoveRow(from, to int) { moveRow(o.on, from, to, true) }

// Allocate implements Scheduler.
func (o *OnOff) Allocate(slot *Slot, alloc []int) {
	for len(o.on) < slot.NumUsers() {
		o.on = append(o.on, true) // players start in ON
	}
	remaining := slot.CapacityUnits
	for _, i := range slot.activeIndices(&o.act) {
		// Hysteresis on the playback buffer.
		buf := slot.bufferSecAt(i)
		if o.on[i] && buf >= o.highSec {
			o.on[i] = false
		} else if !o.on[i] && buf <= o.lowSec {
			o.on[i] = true
		}
		if !o.on[i] || remaining == 0 {
			continue
		}
		a := slot.MaxUnitsAt(i)
		if a > remaining {
			a = remaining
		}
		alloc[i] = a
		remaining -= a
	}
}

// SALSA reimplements the energy-delay-tradeoff scheduler of Ra et al.
// (MobiSys 2010), cited as [17]: transfers are deferred until either the
// channel is good relative to its recent average (cheap bytes) or the
// backlog deadline pressure forces transmission. Following the paper's
// critique, SALSA ignores tail energy and per-user competition.
type SALSA struct {
	// urgentSec is the buffer level under which transmission is forced.
	urgentSec units.Seconds
	// ewma tracks each user's average link rate to judge "good" slots.
	ewma  []float64
	alpha float64
	act   []int // activeIndices fallback scratch
}

// NewSALSA builds the SALSA baseline. urgentSec is the buffer urgency
// threshold; ewmaAlpha ∈ (0,1] is the channel-average smoothing factor.
func NewSALSA(urgentSec units.Seconds, ewmaAlpha float64) (*SALSA, error) {
	if urgentSec <= 0 {
		return nil, fmt.Errorf("salsa: non-positive urgency threshold %v", urgentSec)
	}
	if ewmaAlpha <= 0 || ewmaAlpha > 1 {
		return nil, fmt.Errorf("salsa: smoothing factor %v outside (0,1]", ewmaAlpha)
	}
	return &SALSA{urgentSec: urgentSec, alpha: ewmaAlpha}, nil
}

// Name implements Scheduler.
func (*SALSA) Name() string { return "SALSA" }

// ResetRow and MoveRow implement RowState: no channel average yet.
func (s *SALSA) ResetRow(i int)       { resetRow(s.ewma, i, 0) }
func (s *SALSA) MoveRow(from, to int) { moveRow(s.ewma, from, to, 0) }

// Allocate implements Scheduler.
func (s *SALSA) Allocate(slot *Slot, alloc []int) {
	for len(s.ewma) < slot.NumUsers() {
		s.ewma = append(s.ewma, 0)
	}
	remaining := slot.CapacityUnits
	for _, i := range slot.activeIndices(&s.act) {
		rate := float64(slot.linkRateAt(i))
		if s.ewma[i] == 0 {
			s.ewma[i] = rate
		} else {
			s.ewma[i] = s.alpha*rate + (1-s.alpha)*s.ewma[i]
		}
		goodChannel := rate >= s.ewma[i]
		urgent := slot.bufferSecAt(i) < s.urgentSec
		if !goodChannel && !urgent {
			continue // defer: wait for a cheaper slot
		}
		if remaining == 0 {
			continue
		}
		// Send the playback need, doubled on good channels to exploit the
		// cheap bytes (the energy-delay "work ahead" lever).
		want := slot.needUnitsAt(i)
		if goodChannel {
			want *= 2
		}
		if m := slot.MaxUnitsAt(i); want > m {
			want = m
		}
		if want > remaining {
			want = remaining
		}
		alloc[i] = want
		remaining -= want
	}
}

// EStreamer reimplements the burst-shaped proxy delivery of Hoque et al.
// (ACM TOMCCAP 2014), cited as [16]: the proxy fills the client buffer in
// large bursts sized off the playback buffer, then goes silent until the
// buffer drains near empty. Bursts shorten radio-active time but the
// inter-burst gaps each pay a full RRC tail, and — per the paper's
// critique — signal strength is ignored when choosing burst timing.
type EStreamer struct {
	// burstSec is the buffer level a burst fills to.
	burstSec units.Seconds
	// resumeSec is the buffer level that triggers the next burst.
	resumeSec units.Seconds
	bursting  []bool
	act       []int // activeIndices fallback scratch
}

// NewEStreamer builds the EStreamer baseline.
func NewEStreamer(burstSec, resumeSec units.Seconds) (*EStreamer, error) {
	if resumeSec < 0 || burstSec <= resumeSec {
		return nil, fmt.Errorf("estreamer: invalid burst=%v resume=%v", burstSec, resumeSec)
	}
	return &EStreamer{burstSec: burstSec, resumeSec: resumeSec}, nil
}

// Name implements Scheduler.
func (*EStreamer) Name() string { return "EStreamer" }

// ResetRow and MoveRow implement RowState: a new row starts bursting.
func (e *EStreamer) ResetRow(i int)       { resetRow(e.bursting, i, true) }
func (e *EStreamer) MoveRow(from, to int) { moveRow(e.bursting, from, to, true) }

// Allocate implements Scheduler.
func (e *EStreamer) Allocate(slot *Slot, alloc []int) {
	for len(e.bursting) < slot.NumUsers() {
		e.bursting = append(e.bursting, true)
	}
	remaining := slot.CapacityUnits
	for _, i := range slot.activeIndices(&e.act) {
		buf := slot.bufferSecAt(i)
		if e.bursting[i] && buf >= e.burstSec {
			e.bursting[i] = false
		} else if !e.bursting[i] && buf <= e.resumeSec {
			e.bursting[i] = true
		}
		if !e.bursting[i] || remaining == 0 {
			continue
		}
		// Burst: fill toward the target watermark at link speed.
		deficit := float64(e.burstSec-buf) * float64(slot.RateAt(i))
		want := ceilDiv(deficit, float64(slot.Unit))
		if m := slot.MaxUnitsAt(i); want > m {
			want = m
		}
		if want > remaining {
			want = remaining
		}
		alloc[i] = want
		remaining -= want
	}
}

var (
	_ Scheduler = (*Throttling)(nil)
	_ Scheduler = (*OnOff)(nil)
	_ Scheduler = (*SALSA)(nil)
	_ Scheduler = (*EStreamer)(nil)
)
