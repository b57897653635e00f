package sched

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"

	"jointstream/internal/radio"
	"jointstream/internal/rrc"
	"jointstream/internal/units"
)

func TestByName(t *testing.T) {
	p := Params{Budget: 950, V: 0.2, Radio: radio.Paper3G(), RRC: rrc.Paper3G()}
	must := func(s Scheduler, err error) Scheduler {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for name, want := range map[string]Scheduler{
		"default":    NewDefault(),
		"throttling": must(NewThrottling(1.25)),
		"onoff":      must(NewOnOff(10, 40)),
		"salsa":      must(NewSALSA(15, 0.3)),
		"estreamer":  must(NewEStreamer(30, 5)),
		"propfair":   must(NewProportionalFair(100)),
		"ema":        must(NewEMA(EMAConfig{V: 0.2, RRC: rrc.Paper3G()})),
		"rtma":       must(NewRTMA(RTMAConfig{Budget: 950, Radio: radio.Paper3G(), RRC: rrc.Paper3G()})),
	} {
		if got := must(ByName(name, p)); !reflect.DeepEqual(got, want) {
			t.Errorf("ByName(%q) = %#v, want %#v", name, got, want)
		}
	}
	if s, err := ByName("predictive", p); err == nil {
		t.Errorf("unknown name built %v", s)
	}
	if _, err := ByName("ema", Params{}); err == nil {
		t.Error("EMA without V built")
	}
}

// CalibrateV on a synthetic PC(V) = V: both early exits, the probe count,
// and the bisection's precision on log V.
func TestCalibrateV(t *testing.T) {
	const lo, hi, steps = calibrateVMin, calibrateVMax, 9
	for _, c := range []struct {
		omega  units.Seconds
		probes int
	}{
		{0.001, 1},     // PC(lo) > Ω: lo
		{20, 2},        // PC(hi) ≤ Ω: hi
		{1, 2 + steps}, // bisection
	} {
		probes := 0
		v, err := CalibrateV(steps, c.omega, func(v float64) (units.Seconds, error) {
			probes++
			return units.Seconds(v), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if probes != c.probes {
			t.Errorf("Ω=%v: %d probes, want %d", c.omega, probes, c.probes)
		}
		switch {
		case c.probes == 1 && v != lo, c.probes == 2 && v != hi:
			t.Errorf("Ω=%v: V=%v, want the bound", c.omega, v)
		case c.probes > 2 && (units.Seconds(v) > c.omega || v < float64(c.omega)/math.Pow(hi/lo, math.Pow(2, -steps))):
			t.Errorf("Ω=%v: V=%v is not the largest V within Ω to the bisection's precision", c.omega, v)
		}
	}
	boom := errors.New("boom")
	for fail := 1; fail <= 3; fail++ {
		probes := 0
		_, err := CalibrateV(steps, 1, func(v float64) (units.Seconds, error) {
			if probes++; probes == fail {
				return 0, boom
			}
			return units.Seconds(v), nil
		})
		if !errors.Is(err, boom) {
			t.Errorf("probe %d failing: got %v", fail, err)
		}
	}
}

// Every scheduler that keeps per-row state forgets a reset row and carries
// a moved one: afterwards it serves the rows exactly as a scheduler whose
// history had the session at its new row (or never had it), and a
// scheduler left unfixed does not.
func TestRowState(t *testing.T) {
	mk := func(buf units.Seconds, link units.KBps, maxUnits int) user {
		return user{Active: true, BufferSec: buf, LinkRate: link, Rate: 350, EnergyPerKB: 0.2, RemainingKB: 1e9, MaxUnits: maxUnits, NeverActive: true}
	}
	// old switches ON-OFF and EStreamer off at 50 s of buffer, raises
	// SALSA's channel average and earns a PropFair average; under EMA at
	// V = 0.05 every row's queue grows by a slot a slot until it reaches 4
	// and pays for a grant. cur is what every row looks like afterwards.
	old, cur, idle := mk(50, 4000, 40), mk(20, 1000, 10), user{}
	serve := func(s Scheduler, slot *Slot, slots int) (out []int) {
		for k := 0; k < slots; k++ {
			alloc := make([]int, slot.NumUsers())
			s.Allocate(slot, alloc)
			out = append(out, alloc...)
		}
		return out
	}
	for _, name := range []string{"onoff", "salsa", "estreamer", "propfair", "ema"} {
		for _, c := range []struct {
			op                 string
			history, reference []user
			apply              func(RowState)
			next               []user
		}{
			{"reset", []user{cur, old}, []user{cur, idle}, func(r RowState) { r.ResetRow(1) }, []user{cur, cur}},
			{"move", []user{idle, cur, old}, []user{old, cur, idle}, func(r RowState) { r.MoveRow(2, 0) }, []user{cur, cur, idle}},
		} {
			var s [3]Scheduler // fixed, reference, unfixed
			for k := range s {
				var err error
				if s[k], err = ByName(name, Params{V: 0.05, RRC: rrc.Paper3G()}); err != nil {
					t.Fatal(err)
				}
			}
			serve(s[0], makeSlot(1000, c.history...), 4)
			serve(s[1], makeSlot(1000, c.reference...), 4)
			serve(s[2], makeSlot(1000, c.history...), 4)
			c.apply(s[0].(RowState))
			next := makeSlot(15, c.next...)
			got, want, stale := serve(s[0], next, 3), serve(s[1], next, 3), serve(s[2], next, 3)
			if !slices.Equal(got, want) {
				t.Errorf("%s %s: allocations %v, want %v", name, c.op, got, want)
			}
			if slices.Equal(stale, want) {
				t.Errorf("%s %s: the slots cannot tell the row's state apart", name, c.op)
			}
		}
	}
}
