package deploy

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"jointstream/internal/sched"
)

// The epoch loop's observable contract: the reports it hands OnEpoch are
// pinned against a fixture. Regenerate deliberately with
//
//	go test ./internal/deploy -run Golden -update
//
// and explain the drift.

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden.json from the current runners")

// golden decodes the fixture testdata/name into want, first rewriting it
// from got under -update. The caller compares with ==: encoding/json
// writes the shortest float that reads back to the same bits.
func golden(t *testing.T, name string, got, want any) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read fixture (run with -update to create it): %v", err)
	}
	if err := json.Unmarshal(b, want); err != nil {
		t.Fatal(err)
	}
}

// TestEpochInfoGolden pins every epoch report of two runs over three sites
// at an odd epoch size: round-robin placement over ragged horizons, and
// least-loaded placement whose sites retire as their sessions end.
func TestEpochInfoGolden(t *testing.T) {
	var got struct{ Closed, LeastLoaded []EpochInfo }
	cfg := fleetConfig(3)
	cfg.EpochSlots = 17
	for i := range cfg.Sites {
		cfg.Sites[i].Cell.RunFullHorizon = true // the ragged horizons set the retirements
	}
	cfg.OnEpoch = func(e EpochInfo) { got.Closed = append(got.Closed, e) }
	if _, err := Run(context.Background(), cfg, fleetSessions(t, 12), defaultFactory); err != nil {
		t.Fatal(err)
	}
	ll := fleetConfig(3)
	ll.Policy = LeastLoaded
	ll.EpochSlots = 17
	ll.OnEpoch = func(e EpochInfo) { got.LeastLoaded = append(got.LeastLoaded, e) }
	if _, err := Run(context.Background(), ll, fleetSessions(t, 30), defaultFactory); err != nil {
		t.Fatal(err)
	}

	var want struct{ Closed, LeastLoaded []EpochInfo }
	golden(t, "epoch_info.golden.json", got, &want)
	if !slices.Equal(got.Closed, want.Closed) {
		t.Errorf("round-robin fleet epochs:\n got %+v\nwant %+v", got.Closed, want.Closed)
	}
	if !slices.Equal(got.LeastLoaded, want.LeastLoaded) {
		t.Errorf("least-loaded fleet epochs:\n got %+v\nwant %+v", got.LeastLoaded, want.LeastLoaded)
	}
}

// wedgedScheduler allocates normally until slot wedgeAt, then blocks
// forever — the failure mode the epoch watchdog exists for.
type wedgedScheduler struct {
	inner   sched.Scheduler
	wedgeAt int
}

func (w *wedgedScheduler) Name() string { return "wedged" }

func (w *wedgedScheduler) Allocate(slot *sched.Slot, alloc []int) {
	if slot.N >= w.wedgeAt {
		select {} // wedge: no context check, no return
	}
	w.inner.Allocate(slot, alloc)
}

// wedgedRun runs cfg under a 100 ms watchdog with a scheduler that wedges
// at slot 5, and checks that the stall surfaces as a typed
// *EpochStalledError instead of hanging the fleet.
func wedgedRun(t *testing.T, cfg Config) {
	t.Helper()
	cfg.EpochSlots = 64
	cfg.EpochTimeout = 100 * time.Millisecond
	_, err := Run(context.Background(), cfg, smallSessions(t, 6), func() (sched.Scheduler, error) {
		return &wedgedScheduler{inner: sched.NewDefault(), wedgeAt: 5}, nil
	})
	var stalled *EpochStalledError
	if !errors.As(err, &stalled) {
		t.Fatalf("%d sites: wedged run returned %v, want *EpochStalledError", len(cfg.Sites), err)
	}
	if stalled.Timeout != cfg.EpochTimeout || stalled.UptoSlot <= 0 {
		t.Fatalf("%d sites: stall fields: %+v", len(cfg.Sites), stalled)
	}
}

// TestEpochWatchdogStalls: a scheduler that wedges mid-run trips the
// watchdog with the sites fanned out on the pool.
func TestEpochWatchdogStalls(t *testing.T) {
	wedgedRun(t, twoSites())
}

// TestOpenFleetWatchdog: the watchdog also trips when three least-loaded
// sites are advanced inline on one worker.
func TestOpenFleetWatchdog(t *testing.T) {
	three := twoSites()
	three.Sites = append(three.Sites, Site{Name: "east", Cell: siteConfig(), SignalOffset: -5})
	three.Policy, three.Workers = LeastLoaded, 1
	wedgedRun(t, three)
}

// TestEpochWatchdogQuiescent: a healthy run under a generous watchdog
// finishes with metrics identical to the unwatched run.
func TestEpochWatchdogQuiescent(t *testing.T) {
	run := func(timeout time.Duration) *Result {
		cfg := twoSites()
		cfg.EpochSlots = 128
		cfg.EpochTimeout = timeout
		res, err := Run(context.Background(), cfg, smallSessions(t, 6), defaultFactory)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, watched := run(0), run(time.Minute)
	if plain.Fleet.Energy != watched.Fleet.Energy ||
		plain.Fleet.Rebuffer != watched.Fleet.Rebuffer ||
		plain.Fleet.Users != watched.Fleet.Users ||
		plain.Fleet.Epochs != watched.Fleet.Epochs {
		t.Fatalf("watchdog perturbed the run:\n%+v\nvs\n%+v", plain.Fleet, watched.Fleet)
	}
}
