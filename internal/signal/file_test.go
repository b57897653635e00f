package signal

import (
	"bytes"
	"strings"
	"testing"

	"jointstream/internal/units"
)

func TestWriteReadRoundTrip(t *testing.T) {
	tr, err := NewStatelessSine(SineConfig{Bounds: DefaultBounds, PeriodSlots: 50, NoiseStdDBm: 10}, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr, 100); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf, DefaultBounds)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 100; n++ {
		orig := float64(tr.At(n))
		got := float64(back.At(n))
		// Written with 2 decimals.
		if diff := orig - got; diff > 0.005 || diff < -0.005 {
			t.Fatalf("slot %d: %v vs %v", n, orig, got)
		}
	}
	// Beyond the recorded range the trace holds its last value.
	if back.At(500) != back.At(99) {
		t.Error("replayed trace does not hold last value")
	}
}

func TestWriteTraceValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, nil, 10); err == nil {
		t.Error("nil trace accepted")
	}
	if err := WriteTrace(&buf, Constant(-80, DefaultBounds), 0); err == nil {
		t.Error("zero samples accepted")
	}
}

func TestReadTraceBareValues(t *testing.T) {
	in := "# comment\n-80\n-85.5\n\n-90\n"
	tr, err := ReadTrace(strings.NewReader(in), DefaultBounds)
	if err != nil {
		t.Fatal(err)
	}
	wants := []units.DBm{-80, -85.5, -90}
	for i, w := range wants {
		if got := tr.At(i); got != w {
			t.Errorf("At(%d) = %v, want %v", i, got, w)
		}
	}
}

func TestReadTraceCSVPairs(t *testing.T) {
	in := "0,-60\n1,-70\n2,-80\n"
	tr, err := ReadTrace(strings.NewReader(in), DefaultBounds)
	if err != nil {
		t.Fatal(err)
	}
	if tr.At(1) != -70 {
		t.Errorf("At(1) = %v", tr.At(1))
	}
}

func TestReadTraceClamps(t *testing.T) {
	in := "-30\n-200\n"
	tr, err := ReadTrace(strings.NewReader(in), DefaultBounds)
	if err != nil {
		t.Fatal(err)
	}
	if tr.At(0) != -50 || tr.At(1) != -110 {
		t.Errorf("clamping failed: %v, %v", tr.At(0), tr.At(1))
	}
}

func TestReadTraceErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"only comments", "# nothing\n"},
		{"bad value", "abc\n"},
		{"bad slot", "x,-80\n"},
		{"out of order", "0,-80\n2,-90\n"},
		{"bad csv value", "0,notanumber\n"},
	}
	for _, c := range cases {
		if _, err := ReadTrace(strings.NewReader(c.in), DefaultBounds); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// Invalid bounds also rejected.
	if _, err := ReadTrace(strings.NewReader("-80\n"), Bounds{Min: -50, Max: -110}); err == nil {
		t.Error("inverted bounds accepted")
	}
}
