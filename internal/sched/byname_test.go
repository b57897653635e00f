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

// CalibrateV on a PC(V) that is not monotone, as a measured one need not
// be: the low end when its probe fails, the high end when its probe
// passes, and otherwise the last midpoint that passed (the low end if none
// did) — whatever the probes around it read.
func TestCalibrateVNonMonotone(t *testing.T) {
	const lo, hi, steps, omega = calibrateVMin, calibrateVMax, 8, 1
	const pass, fail units.Seconds = 0, 2
	// zigzag passes and fails on alternate bands of log V.
	zigzag := func(v float64) units.Seconds {
		if v != hi && int(math.Log(v/lo)*5)%2 == 0 {
			return pass
		}
		return fail
	}
	for _, c := range []struct {
		name string
		pc   func(v float64) units.Seconds
		want func(mids []float64, passed []bool) float64
	}{
		{"low end fails", func(v float64) units.Seconds {
			if v == lo {
				return fail
			}
			return pass
		}, func([]float64, []bool) float64 { return lo }},
		{"high end passes", func(v float64) units.Seconds {
			if v == lo || v == hi {
				return pass
			}
			return fail
		}, func([]float64, []bool) float64 { return hi }},
		{"no midpoint passes", func(v float64) units.Seconds {
			if v == lo {
				return pass
			}
			return fail
		}, func([]float64, []bool) float64 { return lo }},
		{"zigzag", zigzag, func(mids []float64, passed []bool) float64 {
			last := lo
			for i, v := range mids {
				if passed[i] {
					last = v
				}
			}
			return last
		}},
	} {
		var mids []float64
		var passed []bool
		got, err := CalibrateV(steps, omega, func(v float64) (units.Seconds, error) {
			pc := c.pc(v)
			if v != lo && v != hi {
				mids, passed = append(mids, v), append(passed, pc <= omega)
			}
			return pc, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := c.want(mids, passed); got != want {
			t.Errorf("%s: V=%v, want %v (midpoints %v, passed %v)", c.name, got, want, mids, passed)
		}
		if c.name != "zigzag" {
			continue
		}
		// The answer passes, yet PC fails at a smaller V: no monotone PC(V)
		// reads like this.
		below := false
		for v := lo; v < got; v *= 1.01 {
			below = below || zigzag(v) == fail
		}
		if len(mids) != steps || zigzag(got) != pass || !below {
			t.Errorf("zigzag: script error: %d midpoints, answer passes %v, a smaller V fails %v",
				len(mids), zigzag(got) == pass, below)
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
