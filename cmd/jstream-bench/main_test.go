package main

import "testing"

// TestModeRejectsSilentlyDroppedFlags: one selector at a time, and no
// output flag the selected run would ignore.
func TestModeRejectsSilentlyDroppedFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		args dispatchArgs
		mode string
		ok   bool
	}{
		{"all figures, every output", dispatchArgs{figID: "all", jsonOut: "f.json", htmlOut: "r.html", parallel: true}, "", true},
		{"one figure exported", dispatchArgs{figID: "5a", jsonOut: "f.json", htmlOut: "r.html"}, "-fig", true},
		{"claims", dispatchArgs{figID: "ALL", claimsOnly: true}, "-claims", true},
		{"extension", dispatchArgs{figID: "all", ext: "lte"}, "-ext", true},
		{"every extension", dispatchArgs{figID: "all", ext: "all"}, "-ext", true},
		{"diff", dispatchArgs{figID: "all", diffBase: "base.json"}, "-diff", true},
		{"ext and diff", dispatchArgs{figID: "all", ext: "lte", diffBase: "base.json"}, "", false},
		{"ext and figure", dispatchArgs{figID: "6", ext: "lte"}, "", false},
		{"diff and claims", dispatchArgs{figID: "all", diffBase: "base.json", claimsOnly: true}, "", false},
		{"figure and claims", dispatchArgs{figID: "6", claimsOnly: true}, "", false},
		{"json under ext", dispatchArgs{figID: "all", ext: "lte", jsonOut: "f.json"}, "", false},
		{"html under diff", dispatchArgs{figID: "all", diffBase: "base.json", htmlOut: "r.html"}, "", false},
		{"parallel under diff", dispatchArgs{figID: "all", diffBase: "base.json", parallel: true}, "", false},
		{"parallel with one figure", dispatchArgs{figID: "6", parallel: true}, "", false},
		{"json under claims", dispatchArgs{figID: "all", claimsOnly: true, jsonOut: "f.json"}, "", false},
	} {
		mode, err := tc.args.mode()
		if (err == nil) != tc.ok || mode != tc.mode {
			t.Errorf("%s: mode %q, err %v; want mode %q, ok %v", tc.name, mode, err, tc.mode, tc.ok)
		}
	}
}
