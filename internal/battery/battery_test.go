package battery

import (
	"math"
	"testing"
	"testing/quick"

	"jointstream/internal/units"
)

func TestValidate(t *testing.T) {
	if err := Typical2015Phone().validate(); err != nil {
		t.Fatalf("typical pack invalid: %v", err)
	}
	bad := []Pack{
		{CapacitymAh: 0, Voltage: 3.8},
		{CapacitymAh: 2600, Voltage: 0},
		{CapacitymAh: 2600, Voltage: 3.8, BaselineMW: -1},
	}
	for i, p := range bad {
		if err := p.validate(); err == nil {
			t.Errorf("bad pack %d accepted", i)
		}
	}
}

func TestTotalMJ(t *testing.T) {
	// 2600 mAh * 3.6 C/mAh * 3.8 V = 35568 J = 3.5568e7 mJ.
	p := Typical2015Phone()
	want := 2600.0 * 3.6 * 3.8 * 1000
	if got := float64(p.TotalMJ()); math.Abs(got-want) > 1 {
		t.Errorf("TotalMJ = %v, want %v", got, want)
	}
}

func TestSessionCost(t *testing.T) {
	p := Pack{CapacitymAh: 1000, Voltage: 3.6, BaselineMW: 500}
	// Total pack: 1000*3.6*3.6*1000 = 1.296e7 mJ.
	// Session: 100 J radio + 500 mW * 1000 s = 500 J baseline = 600 J.
	cost, err := p.Session(100_000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if cost.RadioMJ != 100_000 || cost.BaselineMJ != 500_000 {
		t.Errorf("cost breakdown = %+v", cost)
	}
	wantPct := 600_000.0 / 1.296e7 * 100
	if math.Abs(cost.Percent-wantPct) > 1e-9 {
		t.Errorf("Percent = %v, want %v", cost.Percent, wantPct)
	}
	if _, err := p.Session(-1, 10); err == nil {
		t.Error("negative radio energy accepted")
	}
	if _, err := p.Session(1, -10); err == nil {
		t.Error("negative duration accepted")
	}
}

func TestStreamingHours(t *testing.T) {
	p := Pack{CapacitymAh: 1000, Voltage: 3.6, BaselineMW: 0}
	// 1.296e7 mJ at 1000 mW -> 12960 s = 3.6 h.
	h, err := p.StreamingHours(1000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h-3.6) > 1e-9 {
		t.Errorf("StreamingHours = %v, want 3.6", h)
	}
	if _, err := p.StreamingHours(-1); err == nil {
		t.Error("negative power accepted")
	}
	zero := Pack{CapacitymAh: 1000, Voltage: 3.6}
	if _, err := zero.StreamingHours(0); err == nil {
		t.Error("zero draw accepted")
	}
	// Baseline power shortens life.
	withBase := Pack{CapacitymAh: 1000, Voltage: 3.6, BaselineMW: 1000}
	h2, _ := withBase.StreamingHours(1000)
	if h2 >= h {
		t.Errorf("baseline draw did not shorten life: %v vs %v", h2, h)
	}
}

func TestExtraSessions(t *testing.T) {
	p := Pack{CapacitymAh: 1000, Voltage: 3.6}
	old := SessionCost{RadioMJ: 1.296e6} // 10% of charge -> 10 sessions
	new_ := SessionCost{RadioMJ: 6.48e5} // 5% -> 20 sessions
	extra, err := p.ExtraSessions(old, new_)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(extra-10) > 1e-9 {
		t.Errorf("ExtraSessions = %v, want 10", extra)
	}
	if _, err := p.ExtraSessions(new_, old); err == nil {
		t.Error("regression (new > old) accepted")
	}
	if _, err := p.ExtraSessions(old, SessionCost{}); err == nil {
		t.Error("zero new cost accepted")
	}
}

// Property: session percent is linear in radio energy and always
// non-negative.
func TestSessionLinearityProperty(t *testing.T) {
	p := Typical2015Phone()
	f := func(mjRaw uint32, durRaw uint16) bool {
		mj := units.MJ(mjRaw % 1_000_000)
		dur := units.Seconds(durRaw % 3600)
		c1, err := p.Session(mj, dur)
		if err != nil || c1.Percent < 0 {
			return false
		}
		c2, err := p.Session(2*mj, dur)
		if err != nil {
			return false
		}
		// Doubling radio energy doubles the radio share exactly.
		return math.Abs(float64(c2.RadioMJ)-2*float64(c1.RadioMJ)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
