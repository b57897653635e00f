package workload

import (
	"strings"
	"testing"
)

const validSpec = `{
  "users": [
    {"size_mb": 350, "rate_kbps": 450, "signal": {"kind": "constant", "level_dbm": -70}},
    {"size_mb": 120, "rate_kbps": 300, "start_slot": 5,
     "signal": {"kind": "sine", "period_slots": 100, "noise_db": 10, "seed": 7}},
    {"size_mb": 80, "rate_kbps": 600,
     "signal": {"kind": "trace", "values_dbm": [-60, -70, -80]}},
    {"size_mb": 50, "rate_kbps": 400,
     "signal": {"kind": "walk", "level_dbm": -75, "step_db": 4, "seed": 3}}
  ]
}`

func TestReadSpecAndSessions(t *testing.T) {
	spec, err := ReadSpec(strings.NewReader(validSpec))
	if err != nil {
		t.Fatal(err)
	}
	sessions, err := spec.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 4 {
		t.Fatalf("got %d sessions", len(sessions))
	}
	if sessions[0].Size != 350000 || sessions[0].BaseRate != 450 {
		t.Errorf("session 0 = %+v", sessions[0])
	}
	if sessions[1].StartSlot != 5 {
		t.Errorf("start slot = %d", sessions[1].StartSlot)
	}
	// Constant channel.
	if got := sessions[0].Signal.At(100); got != -70 {
		t.Errorf("constant signal = %v", got)
	}
	// Replayed trace holds its last value.
	if got := sessions[2].Signal.At(10); got != -80 {
		t.Errorf("trace signal = %v", got)
	}
	// IDs are dense.
	for i, s := range sessions {
		if s.ID != i {
			t.Errorf("session %d has ID %d", i, s.ID)
		}
	}
}

func TestSpecDeterministic(t *testing.T) {
	mk := func() *Session {
		spec, err := ReadSpec(strings.NewReader(validSpec))
		if err != nil {
			t.Fatal(err)
		}
		ss, err := spec.Sessions()
		if err != nil {
			t.Fatal(err)
		}
		return ss[1] // the seeded sine user
	}
	a, b := mk(), mk()
	for n := 0; n < 50; n++ {
		if a.Signal.At(n) != b.Signal.At(n) {
			t.Fatal("seeded spec sessions not deterministic")
		}
	}
}

func TestReadSpecErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"garbage", "not json"},
		{"empty users", `{"users": []}`},
		{"unknown field", `{"users": [{"size_mb": 1, "rate_kbps": 1, "bogus": 2, "signal": {"kind": "constant"}}]}`},
		{"zero size", `{"users": [{"size_mb": 0, "rate_kbps": 400, "signal": {"kind": "constant"}}]}`},
		{"zero rate", `{"users": [{"size_mb": 10, "rate_kbps": 0, "signal": {"kind": "constant"}}]}`},
		{"negative start", `{"users": [{"size_mb": 10, "rate_kbps": 400, "start_slot": -1, "signal": {"kind": "constant"}}]}`},
		{"bad kind", `{"users": [{"size_mb": 10, "rate_kbps": 400, "signal": {"kind": "laser"}}]}`},
		{"empty trace", `{"users": [{"size_mb": 10, "rate_kbps": 400, "signal": {"kind": "trace"}}]}`},
	}
	for _, c := range cases {
		if _, err := ReadSpec(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestSpecSineDefaultsPeriod(t *testing.T) {
	in := `{"users": [{"size_mb": 10, "rate_kbps": 400, "signal": {"kind": "sine"}}]}`
	spec, err := ReadSpec(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	sessions, err := spec.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	// Default 600-slot period, no noise: slot 150 is the sine peak (-50).
	if got := sessions[0].Signal.At(150); got != -50 {
		t.Errorf("default sine peak = %v, want -50", got)
	}
}
