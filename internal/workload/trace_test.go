package workload

import (
	"strings"
	"testing"

	"jointstream/internal/units"
)

func TestParseArrivalTrace(t *testing.T) {
	csv := `timestamp,rate,duration
# warm-up epoch: 4 arrivals over 2s starting at t=0
0,2,2
10,1,3
`
	slots, err := ParseArrivalTrace(strings.NewReader(csv), units.Seconds(1))
	if err != nil {
		t.Fatal(err)
	}
	// Epoch 1: floor(2*2)=4 arrivals at t=0, 0.5, 1, 1.5 -> slots 0,0,1,1.
	// Epoch 2: floor(1*3)=3 arrivals at t=10, 11, 12 -> slots 10,11,12.
	want := []int{0, 0, 1, 1, 10, 11, 12}
	if len(slots) != len(want) {
		t.Fatalf("StartSlots = %v, want %v", slots, want)
	}
	for i, s := range want {
		if slots[i] != s {
			t.Fatalf("StartSlots = %v, want %v", slots, want)
		}
	}
}

func TestParseArrivalTraceOverlapSorted(t *testing.T) {
	// Out-of-order, overlapping epochs must interleave sorted.
	csv := "5,1,2\n0,1,10\n"
	slots, err := ParseArrivalTrace(strings.NewReader(csv), units.Seconds(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(slots) != 12 {
		t.Fatalf("got %d arrivals, want 12: %v", len(slots), slots)
	}
	for i := 1; i < len(slots); i++ {
		if slots[i] < slots[i-1] {
			t.Fatalf("unsorted StartSlots: %v", slots)
		}
	}
}

func TestParseArrivalTraceFinerSlots(t *testing.T) {
	slots, err := ParseArrivalTrace(strings.NewReader("1,4,1\n"), units.Seconds(0.25))
	if err != nil {
		t.Fatal(err)
	}
	want := []int{4, 5, 6, 7}
	for i, s := range want {
		if slots[i] != s {
			t.Fatalf("StartSlots = %v, want %v", slots, want)
		}
	}
}

func TestParseArrivalTraceErrors(t *testing.T) {
	cases := map[string]string{
		"bad field count": "1,2\n",
		"non-numeric":     "0,1,2\n1,x,2\n",
		"negative":        "0,-1,2\n",
		"empty":           "# only comments\n",
		"zero arrivals":   "0,0.1,1\n",
	}
	for name, csv := range cases {
		if _, err := ParseArrivalTrace(strings.NewReader(csv), units.Seconds(1)); err == nil {
			t.Errorf("%s: no error for %q", name, csv)
		}
	}
	if _, err := ParseArrivalTrace(strings.NewReader("0,1,1\n"), 0); err == nil {
		t.Error("no error for zero tau")
	}
}
