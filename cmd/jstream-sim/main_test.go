package main

import (
	"strings"
	"testing"
)

// TestFleetFlagsRefused: every -sites combination the deployment cannot
// run is refused with an error naming what is wrong, before anything is
// generated or run.
func TestFleetFlagsRefused(t *testing.T) {
	fleet := options{sched: "ema", users: 4, avgSizeMB: 10, capacity: 8000, slots: 100, budget: 950, sites: 2, policy: "strongest", shadow: 4}
	for _, c := range []struct {
		name string
		mod  func(*options)
		want string
	}{
		{"unknown policy", func(o *options) { o.policy = "nearest" }, `unknown policy "nearest"`},
		{"offsets count", func(o *options) { o.offsets = "0,-3,-6" }, "3 offsets for 2 sites"},
		{"bad offset", func(o *options) { o.offsets = "0,x" }, `bad offset "x"`},
		{"negative sites", func(o *options) { o.sites = -1 }, "negative -sites"},
		{"spec", func(o *options) { o.spec = "sessions.json" }, "not with -spec"},
		{"predictive", func(o *options) { o.sched = "predictive" }, "-sched predictive"},
		{"adaptive", func(o *options) { o.adaptive = true; o.sites = 1 }, "-adaptive"},
	} {
		t.Run(c.name, func(t *testing.T) {
			o := fleet
			c.mod(&o)
			err := run(o)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("run = %v, want an error containing %q", err, c.want)
			}
		})
	}
}
