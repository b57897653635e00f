package units

import "testing"

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
