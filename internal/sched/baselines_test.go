package sched

import (
	"testing"
	"testing/quick"

	"jointstream/internal/units"
)

func TestThrottlingValidation(t *testing.T) {
	if _, err := NewThrottling(0.9); err == nil {
		t.Error("factor < 1 accepted")
	}
	if _, err := NewThrottling(1); err != nil {
		t.Errorf("factor 1 rejected: %v", err)
	}
}

func TestThrottlingPacesAtFactor(t *testing.T) {
	th, _ := NewThrottling(1.25)
	slot := makeSlot(1000, stdUser(400, -60, 40))
	alloc := make([]int, 1)
	th.Allocate(slot, alloc)
	// ceil(1.25*400/100) = 5 units.
	if alloc[0] != 5 {
		t.Errorf("alloc = %d, want 5", alloc[0])
	}
}

func TestThrottlingClampsToLinkAndCapacity(t *testing.T) {
	th, _ := NewThrottling(1.25)
	slot := makeSlot(3, stdUser(400, -60, 2), stdUser(400, -60, 40))
	alloc := make([]int, 2)
	th.Allocate(slot, alloc)
	if alloc[0] != 2 {
		t.Errorf("link clamp failed: %d", alloc[0])
	}
	if alloc[1] != 1 {
		t.Errorf("capacity clamp failed: %d", alloc[1])
	}
	if err := slot.Validate(alloc); err != nil {
		t.Error(err)
	}
}

func TestThrottlingName(t *testing.T) {
	th, _ := NewThrottling(1.25)
	if th.Name() != "Throttling" {
		t.Error("name mismatch")
	}
}

func TestOnOffValidation(t *testing.T) {
	if _, err := NewOnOff(10, 5); err == nil {
		t.Error("high <= low accepted")
	}
	if _, err := NewOnOff(-1, 5); err == nil {
		t.Error("negative low accepted")
	}
}

func TestOnOffHysteresis(t *testing.T) {
	o, _ := NewOnOff(10, 40)
	// Starts ON: buffer low, fetch at full speed.
	u := stdUser(400, -60, 20)
	u.BufferSec = 0
	alloc := make([]int, 1)
	o.Allocate(makeSlot(1000, u), alloc)
	if alloc[0] != 20 {
		t.Errorf("ON phase alloc = %d, want 20", alloc[0])
	}
	// Buffer above high watermark: switches OFF.
	u.BufferSec = 45
	alloc[0] = 0
	o.Allocate(makeSlot(1000, u), alloc)
	if alloc[0] != 0 {
		t.Errorf("OFF phase alloc = %d, want 0", alloc[0])
	}
	// Buffer between watermarks while OFF: stays OFF.
	u.BufferSec = 25
	o.Allocate(makeSlot(1000, u), alloc)
	if alloc[0] != 0 {
		t.Errorf("mid-band (OFF) alloc = %d, want 0", alloc[0])
	}
	// Buffer at/below low watermark: back ON.
	u.BufferSec = 9
	o.Allocate(makeSlot(1000, u), alloc)
	if alloc[0] != 20 {
		t.Errorf("resumed ON alloc = %d, want 20", alloc[0])
	}
	// Between watermarks while ON: stays ON.
	u.BufferSec = 25
	alloc[0] = 0
	o.Allocate(makeSlot(1000, u), alloc)
	if alloc[0] != 20 {
		t.Errorf("mid-band (ON) alloc = %d, want 20", alloc[0])
	}
}

func TestOnOffName(t *testing.T) {
	o, _ := NewOnOff(10, 40)
	if o.Name() != "ON-OFF" {
		t.Error("name mismatch")
	}
}

func TestSALSAValidation(t *testing.T) {
	if _, err := NewSALSA(0, 0.3); err == nil {
		t.Error("zero urgency accepted")
	}
	if _, err := NewSALSA(10, 0); err == nil {
		t.Error("zero alpha accepted")
	}
	if _, err := NewSALSA(10, 1.5); err == nil {
		t.Error("alpha > 1 accepted")
	}
}

func TestSALSADefersOnBadChannelWithBuffer(t *testing.T) {
	s, _ := NewSALSA(15, 0.3)
	// Seed the EWMA with a strong slot.
	u := stdUser(400, -55, 40)
	u.BufferSec = 30
	alloc := make([]int, 1)
	s.Allocate(makeSlot(1000, u), alloc)
	// Now a weak slot with a comfortable buffer: defer.
	u2 := stdUser(400, -105, 40)
	u2.BufferSec = 30
	alloc[0] = 0
	s.Allocate(makeSlot(1000, u2), alloc)
	if alloc[0] != 0 {
		t.Errorf("SALSA sent %d on bad channel with buffer", alloc[0])
	}
}

func TestSALSAForcedByUrgency(t *testing.T) {
	s, _ := NewSALSA(15, 0.3)
	u := stdUser(400, -55, 40)
	u.BufferSec = 30
	alloc := make([]int, 1)
	s.Allocate(makeSlot(1000, u), alloc)
	// Bad channel but nearly empty buffer: must transmit the need.
	u2 := stdUser(400, -105, 40)
	u2.BufferSec = 2
	alloc[0] = 0
	s.Allocate(makeSlot(1000, u2), alloc)
	if alloc[0] == 0 {
		t.Error("SALSA deferred although the buffer was urgent")
	}
}

func TestSALSAWorksAheadOnGoodChannel(t *testing.T) {
	s, _ := NewSALSA(15, 0.3)
	u := stdUser(400, -55, 40)
	u.BufferSec = 30
	alloc := make([]int, 1)
	s.Allocate(makeSlot(1000, u), alloc)
	// First slot seeds EWMA to its own rate; rate >= ewma counts as good,
	// so it sends double need: 2*ceil(400/100) = 8.
	if alloc[0] != 8 {
		t.Errorf("good-channel alloc = %d, want 8", alloc[0])
	}
}

func TestSALSAName(t *testing.T) {
	s, _ := NewSALSA(15, 0.3)
	if s.Name() != "SALSA" {
		t.Error("name mismatch")
	}
}

func TestEStreamerValidation(t *testing.T) {
	if _, err := NewEStreamer(5, 10); err == nil {
		t.Error("burst <= resume accepted")
	}
	if _, err := NewEStreamer(30, -1); err == nil {
		t.Error("negative resume accepted")
	}
}

func TestEStreamerBurstCycle(t *testing.T) {
	e, _ := NewEStreamer(30, 5)
	// Starts bursting with empty buffer: fills toward 30s of playback.
	u := stdUser(400, -60, 200)
	u.BufferSec = 0
	alloc := make([]int, 1)
	e.Allocate(makeSlot(10000, u), alloc)
	// deficit = 30s * 400KB/s = 12000KB = 120 units.
	if alloc[0] != 120 {
		t.Errorf("burst alloc = %d, want 120", alloc[0])
	}
	// Buffer full: silent phase.
	u.BufferSec = 32
	alloc[0] = 0
	e.Allocate(makeSlot(10000, u), alloc)
	if alloc[0] != 0 {
		t.Errorf("silent phase alloc = %d, want 0", alloc[0])
	}
	// Stays silent until the resume watermark.
	u.BufferSec = 10
	e.Allocate(makeSlot(10000, u), alloc)
	if alloc[0] != 0 {
		t.Errorf("above-resume alloc = %d, want 0", alloc[0])
	}
	u.BufferSec = 4
	e.Allocate(makeSlot(10000, u), alloc)
	if alloc[0] == 0 {
		t.Error("EStreamer did not resume bursting at the low watermark")
	}
}

func TestEStreamerName(t *testing.T) {
	e, _ := NewEStreamer(30, 5)
	if e.Name() != "EStreamer" {
		t.Error("name mismatch")
	}
}

// Property: every baseline respects Eq. (1)/(2) on arbitrary slots.
func TestBaselinesConstraintsProperty(t *testing.T) {
	build := func() []Scheduler {
		th, _ := NewThrottling(1.25)
		oo, _ := NewOnOff(10, 40)
		sa, _ := NewSALSA(15, 0.3)
		es, _ := NewEStreamer(30, 5)
		return []Scheduler{NewDefault(), th, oo, sa, es}
	}
	schedulers := build()
	f := func(rates []uint16, sigs []uint8, bufs []uint8, capRaw uint16) bool {
		n := len(rates)
		if n == 0 || n > 10 {
			return true
		}
		if len(sigs) < n || len(bufs) < n {
			return true
		}
		users := make([]user, n)
		for i := range users {
			sig := units.DBm(-110 + float64(sigs[i]%61))
			users[i] = stdUser(units.KBps(rates[i]%600+100), sig, int(rates[i]%50))
			users[i].BufferSec = units.Seconds(bufs[i] % 60)
		}
		for _, s := range schedulers {
			slot := makeSlot(int(capRaw%300), users...)
			alloc := make([]int, n)
			s.Allocate(slot, alloc)
			if err := slot.Validate(alloc); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
