package cell

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"jointstream/internal/sched"
	"jointstream/internal/workload"
)

// runTiny executes one run of the given config over a fresh tiny
// workload and returns its result.
func runTiny(t *testing.T, cfg Config) *Result {
	t.Helper()
	sim, err := New(cfg, tinySessions(t, 3, 2000, 400), sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestOutageValidation(t *testing.T) {
	cfg := tinyConfig()
	cfg.Outages = []Outage{{From: -1, To: 5}}
	if err := cfg.Validate(); err == nil {
		t.Error("negative outage start accepted")
	}
	cfg.Outages = []Outage{{From: 10, To: 5}}
	if err := cfg.Validate(); err == nil {
		t.Error("inverted outage window accepted")
	}
	cfg.Outages = []Outage{{From: 5, To: 5}}
	if err := cfg.Validate(); err != nil {
		t.Errorf("empty outage window rejected: %v", err)
	}
}

// TestOutageDegradesAndRecovers: a capacity-zero window mid-session must
// stall delivery (rebuffering accrues), keep every user admitted, and
// let the sessions finish once capacity returns.
func TestOutageDegradesAndRecovers(t *testing.T) {
	cfg := tinyConfig()
	// Throttle capacity so a 2000 KB video spans many slots and the
	// outage lands mid-session.
	cfg.Capacity = 400
	cfg.Outages = []Outage{{From: 2, To: 6}}
	res := runTiny(t, cfg)
	if res.DegradedSlots != 4 {
		t.Errorf("degraded slots = %d, want 4", res.DegradedSlots)
	}
	for i, u := range res.Users {
		if u.DeliveredKB != 2000 {
			t.Errorf("user %d delivered %v KB, want 2000 (survived the outage)", i, u.DeliveredKB)
		}
		if u.CompletionSlot < 0 {
			t.Errorf("user %d never completed", i)
		}
	}
	// Outage slots must carry zero allocation.
	for n := 2; n < 6; n++ {
		if res.PerSlot[n].UsedUnits != 0 {
			t.Errorf("slot %d used %d units during outage", n, res.PerSlot[n].UsedUnits)
		}
	}
	// The stall must cost rebuffering relative to the undisturbed run.
	base := runTiny(t, func() Config {
		c := tinyConfig()
		c.Capacity = 400
		return c
	}())
	if res.TotalRebuffer() <= base.TotalRebuffer() {
		t.Errorf("outage rebuffer %v not worse than baseline %v", res.TotalRebuffer(), base.TotalRebuffer())
	}
	if base.DegradedSlots != 0 {
		t.Errorf("baseline degraded slots = %d, want 0", base.DegradedSlots)
	}
}

// TestEmptyOutageListMatchesBaseline: a nil and an empty Outages list
// must reproduce the undisturbed run byte for byte.
func TestEmptyOutageListMatchesBaseline(t *testing.T) {
	base := runTiny(t, tinyConfig())
	empty := func() Config {
		c := tinyConfig()
		c.Outages = []Outage{}
		return c
	}()
	got := runTiny(t, empty)
	if !reflect.DeepEqual(base, got) {
		t.Error("empty outage list changed the result")
	}
}

// TestOutageReferenceParity: the production and reference engines must
// agree on a run with outage windows.
func TestOutageReferenceParity(t *testing.T) {
	cfg := tinyConfig()
	cfg.Capacity = 400
	cfg.Outages = []Outage{{From: 1, To: 3}, {From: 8, To: 9}}
	mk := func() *Simulator {
		sim, err := New(cfg, tinySessions(t, 3, 2000, 400), sched.NewDefault())
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	prod, err := mk().Run()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := mk().RunReference(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(prod, ref) {
		t.Errorf("engines diverge under outages: prod %d slots/%d degraded, ref %d slots/%d degraded",
			prod.Slots, prod.DegradedSlots, ref.Slots, ref.DegradedSlots)
	}
}

// TestRunCtxCancellation: a cancelled context stops both engines — a
// bounded OpenSim's Run and the reference arm — promptly with ctx.Err()
// in the chain.
func TestRunCtxCancellation(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(context.Context, []*workload.Session) (*Result, error)
	}{
		{"Run", func(ctx context.Context, wl []*workload.Session) (*Result, error) {
			o, err := NewOpen(OpenConfig{Cell: tinyConfig(), MaxSessions: len(wl)}, wl, sched.NewDefault())
			if err != nil {
				t.Fatal(err)
			}
			return o.Run(ctx)
		}},
		{"RunReference", func(ctx context.Context, wl []*workload.Session) (*Result, error) {
			return mustNewWith(t, tinyConfig(), wl, sched.NewDefault()).RunReference(ctx)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			start := time.Now()
			res, err := tc.run(ctx, tinySessions(t, 2, 2000, 400))
			if res != nil || !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled run returned (%v, %v)", res, err)
			}
			if el := time.Since(start); el > time.Second {
				t.Errorf("cancelled run took %v", el)
			}
		})
	}
}
