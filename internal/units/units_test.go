package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTimesEnergyRoundTrip(t *testing.T) {
	p := MW(700)
	if got := p.Energy(2); got != 1400 {
		t.Errorf("700mW * 2s = %v, want 1400mJ", got)
	}
}

func TestStrings(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{KB(512).String(), "512KB"},
		{KB(1500).String(), "1.5MB"},
		{KB(2.5e6).String(), "2.5GB"},
		{KBps(450).String(), "450KB/s"},
		{KBps(2000).String(), "2MB/s"},
		{MJ(900).String(), "900mJ"},
		{MJ(2500).String(), "2.5J"},
		{MJ(3.2e6).String(), "3.2kJ"},
		{MW(732.83).String(), "732.83mW"},
		{MW(1500).String(), "1.5W"},
		{DBm(-75).String(), "-75dBm"},
		{Seconds(42).String(), "42s"},
		{Seconds(90).String(), "1.5min"},
		{Seconds(7200).String(), "2h"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("String() = %q, want %q", c.got, c.want)
		}
	}
}

func TestParseKB(t *testing.T) {
	cases := []struct {
		in   string
		want KB
	}{
		{"350MB", 350000},
		{"1.5GB", 1.5e6},
		{"200KB", 200},
		{"200", 200},
		{" 42 ", 42},
		{"500B", 0.5},
	}
	for _, c := range cases {
		got, err := ParseKB(c.in)
		if err != nil {
			t.Errorf("ParseKB(%q) error: %v", c.in, err)
			continue
		}
		if math.Abs(float64(got-c.want)) > 1e-9 {
			t.Errorf("ParseKB(%q) = %v, want %v", c.in, float64(got), float64(c.want))
		}
	}
	for _, bad := range []string{"", "abc", "-3MB", "12QB3"} {
		if _, err := ParseKB(bad); err == nil {
			t.Errorf("ParseKB(%q) succeeded, want error", bad)
		}
	}
}

func TestParseKBps(t *testing.T) {
	got, err := ParseKBps("450KB/s")
	if err != nil || got != 450 {
		t.Errorf("ParseKBps(450KB/s) = %v, %v; want 450, nil", float64(got), err)
	}
	got, err = ParseKBps("2MBps")
	if err != nil || got != 2000 {
		t.Errorf("ParseKBps(2MBps) = %v, %v; want 2000, nil", float64(got), err)
	}
	if _, err := ParseKBps("fast"); err == nil {
		t.Error("ParseKBps(fast) succeeded, want error")
	}
}

// Property: parsing the String output of a KB value round-trips.
func TestParseStringRoundTripProperty(t *testing.T) {
	f := func(raw uint32) bool {
		k := KB(float64(raw % 100000)) // keep within 2-decimal precision of String
		parsed, err := ParseKB(k.String())
		if err != nil {
			return false
		}
		// String keeps 2 decimals of the scaled magnitude, so allow 1%% slack.
		return math.Abs(float64(parsed-k)) <= 0.01*math.Max(float64(k), 1)+0.01*float64(scale(k))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func scale(k KB) KB {
	switch {
	case k >= gigabyte:
		return gigabyte
	case k >= Megabyte:
		return Megabyte
	default:
		return 1
	}
}
