package deploy

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// The epoch loop's observable contract: the reports both fleets hand
// OnEpoch and the open fleet's whole result are pinned against fixtures
// recorded before the two fleets shared one loop. Regenerate deliberately
// with
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

// TestEpochInfoGolden pins every epoch report of one closed and one open
// run over three sites at an odd epoch size: the closed fleet's ragged
// horizons retire sites at different barriers, the open fleet's
// least-loaded placement moves sessions in and out of all three.
func TestEpochInfoGolden(t *testing.T) {
	var got struct{ Closed, Open []EpochInfo }
	cfg := fleetConfig(3)
	cfg.EpochSlots = 17
	for i := range cfg.Sites {
		cfg.Sites[i].Cell.RunFullHorizon = true // the ragged horizons set the retirements
	}
	cfg.OnEpoch = func(e EpochInfo) { got.Closed = append(got.Closed, e) }
	if _, err := Run(context.Background(), cfg, fleetSessions(t, 12), defaultFactory); err != nil {
		t.Fatal(err)
	}
	oc := openFleetConfig()
	oc.Deploy.Sites = append(oc.Deploy.Sites, Site{Name: "east", Cell: siteConfig(), SignalOffset: -5})
	oc.Deploy.Policy = LeastLoaded
	oc.Deploy.EpochSlots = 17
	oc.Deploy.OnEpoch = func(e EpochInfo) { got.Open = append(got.Open, e) }
	if _, err := RunOpenFleet(context.Background(), oc, defaultFactory); err != nil {
		t.Fatal(err)
	}

	var want struct{ Closed, Open []EpochInfo }
	golden(t, "epoch_info.golden.json", got, &want)
	if !slices.Equal(got.Closed, want.Closed) {
		t.Errorf("closed fleet epochs:\n got %+v\nwant %+v", got.Closed, want.Closed)
	}
	if !slices.Equal(got.Open, want.Open) {
		t.Errorf("open fleet epochs:\n got %+v\nwant %+v", got.Open, want.Open)
	}
}

// TestOpenFleetChurnGolden pins every field of TestOpenFleetChurn's run,
// each site's final stats included, with ==.
func TestOpenFleetChurnGolden(t *testing.T) {
	cfg := openFleetConfig()
	cfg.Deploy.Workers = 1
	got, err := RunOpenFleet(context.Background(), cfg, defaultFactory)
	if err != nil {
		t.Fatal(err)
	}
	var want OpenFleetResult
	golden(t, "open_fleet_churn.golden.json", got, &want)
	// DeepEqual compares every float field, PerSite's included, with ==.
	if !reflect.DeepEqual(*got, want) {
		t.Errorf("open fleet result:\n got %+v\nwant %+v", *got, want)
	}
}
