package simtest

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"jointstream/internal/cell"
	"jointstream/internal/sched"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden trace fixture from the current simulator output")

const goldenPath = "testdata/golden_trace.json"

// goldenRun is the pinned scenario: N = 5 paper-shaped users, 60 slots at
// a capacity tight enough (10 units/slot vs ~22 units/slot of demand)
// that EMA's DP makes real trade-offs every slot, with per-user-slot
// recording on and strict Eq. (1)/(2) checking.
func goldenRun(t *testing.T) *cell.Result {
	t.Helper()
	wl, err := SmallWorkload(42, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cell.PaperConfig()
	cfg.Capacity = 1000
	cfg.MaxSlots = 60
	cfg.RunFullHorizon = true
	cfg.Record = cell.RecordUserSlots
	cfg.Strict = true
	em, err := sched.NewEMA(sched.EMAConfig{V: 0.2, RRC: cfg.RRC})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := cell.New(cfg, wl, em)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestGoldenTrace locks the full simulator output — per-user totals,
// per-slot aggregates, and the raw per-user-slot series — byte-for-byte
// against the committed fixture, so performance work on the tick path or
// the EMA DP cannot silently drift the paper's figures. Regenerate
// deliberately with:
//
//	go test ./internal/simtest -run TestGoldenTrace -update
//
// The fixture pins amd64 float semantics (Go does not fuse multiply-adds
// there); on architectures where the compiler emits FMA the bytes may
// legitimately differ.
func TestGoldenTrace(t *testing.T) {
	res := goldenRun(t)
	if err := CheckResult(res); err != nil {
		t.Fatalf("golden run violates result invariants: %v", err)
	}
	got, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenPath, len(got))
		return
	}

	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read fixture (run with -update to create it): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("simulator output drifted from %s (got %d bytes, want %d).\n"+
			"If the change is intentional, regenerate with -update and explain the drift in the PR.",
			goldenPath, len(got), len(want))
	}
}

// TestGoldenTraceDeterminism reruns the pinned scenario and requires
// bit-identical results, independent of the fixture: determinism is a
// precondition for the byte-for-byte golden check to be meaningful.
func TestGoldenTraceDeterminism(t *testing.T) {
	a, b := goldenRun(t), goldenRun(t)
	if err := SameResults(a, b); err != nil {
		t.Fatal(err)
	}
}
