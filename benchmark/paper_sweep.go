package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"jointstream/internal/experiments"
)

// figures lists the paper's 13 figures in sweep order.
var figures = []struct {
	id  string
	run func(*experiments.Runner) (*experiments.Figure, error)
}{
	{"2", (*experiments.Runner).Fig2}, {"3", (*experiments.Runner).Fig3},
	{"4a", (*experiments.Runner).Fig4a}, {"4b", (*experiments.Runner).Fig4b},
	{"5a", (*experiments.Runner).Fig5a}, {"5b", (*experiments.Runner).Fig5b},
	{"6", (*experiments.Runner).Fig6}, {"7", (*experiments.Runner).Fig7},
	{"8a", (*experiments.Runner).Fig8a}, {"8b", (*experiments.Runner).Fig8b},
	{"9a", (*experiments.Runner).Fig9a}, {"9b", (*experiments.Runner).Fig9b},
	{"10", (*experiments.Runner).Fig10},
}

// paperSweep is the researcher's time-to-figures: all 13 figures at paper
// scale through the parallel multi-arm Runner. Closed loop, one caller.
type paperSweep struct {
	o        *options
	opts     experiments.Options
	baseline []*experiments.Figure // checked-in figures, comparable at seed 42 only
}

// setup reads the baseline and runs the miniature sweep once, so the timed
// sweeps start with the heap grown and every figure's code paged in.
func (w *paperSweep) setup() error {
	w.opts = experiments.PaperOptions()
	if w.o.sz.SweepQuick {
		w.opts = experiments.QuickOptions()
	}
	w.opts.Seed = w.o.seed
	w.baseline = nil
	if w.o.seed == 42 && w.o.baseline != "" {
		f, err := os.Open(w.o.baseline)
		if err != nil {
			return err
		}
		defer f.Close()
		if w.baseline, err = experiments.ReadJSON(f); err != nil {
			return fmt.Errorf("%s: %w", w.o.baseline, err)
		}
	}
	r, err := experiments.NewRunner(experiments.QuickOptions())
	if err != nil {
		return err
	}
	_, err = r.AllParallel(context.Background(), 0)
	return err
}

func (w *paperSweep) rep(tr *tracer, chk *checker) (*repResult, error) {
	res := &repResult{layer: map[string]float64{}}
	t := time.Now()
	r, err := experiments.NewRunner(w.opts)
	if err != nil {
		return nil, err
	}
	region, sweep := tr.name(regionSpan, 1), tr.name("experiments.AllParallel", 1)
	res.prep = time.Since(t)

	res.main = beginRegion()
	rs := tr.begin(region)
	ss := tr.begin(sweep)
	figs, err := r.AllParallel(context.Background(), 0)
	tr.end(ss)
	tr.end(rs)
	res.main.end()
	if err != nil {
		return nil, err
	}

	chk.ok(len(figs) == len(figures), "sweep returned %d figures, want %d", len(figs), len(figures))
	for _, f := range figs {
		chk.ok(wellFormed(f), "%s is empty or has a series whose X and Y differ in length", f.ID)
	}
	if w.baseline != nil {
		diffs, err := experiments.Diff(figs, w.baseline, 0.001)
		chk.ok(err == nil && len(diffs) == 0, "figures differ from %s at 0.001: %v %v", w.o.baseline, err, first(diffs, 3))
	}
	// Energy and rebuffering are the mean over every point the figures
	// plot of per-user energy (Figs. 5b, 8a, 8b, 9a, 10) and per-user
	// rebuffering (Figs. 4a, 4b, 5a, 9b, 10): at N ≤ 40 one figure alone
	// moves 9 % between seeds, all of them together under 5 %.
	energy, rebuffer := 0.0, 0.0
	for _, f := range figs {
		for _, s := range f.Series {
			if j, ok := joulesPerUser(f.YLabel); ok {
				res.energyMJ += 1000 * j * sum(s.Y)
				energy += float64(len(s.Y))
			}
			if j, ok := joulesPerUser(f.XLabel); ok {
				res.energyMJ += 1000 * j * sum(s.X)
				energy += float64(len(s.X))
			}
			if strings.HasPrefix(f.YLabel, "total rebuffering time per user (s)") {
				res.rebufferS += sum(s.Y)
				rebuffer += float64(len(s.Y))
			}
		}
	}
	chk.ok(energy > 0 && rebuffer > 0, "no figure plots per-user energy (%v points) or rebuffering (%v points)", energy, rebuffer)
	// One denominator serves both means: scale rebuffering to it.
	res.users = energy
	res.rebufferS *= ratio(energy, rebuffer)
	hits, misses := r.WorkloadCacheStats()
	groups, runs := r.MultiArmStats()
	res.layer["experiments.cache_hit_rate"] = ratio(float64(hits), float64(hits+misses))
	res.layer["experiments.arm_groups"] = float64(groups)
	res.layer["experiments.arms_per_group"] = ratio(float64(runs), float64(groups))

	if tr != nil {
		// The parallel sweep cannot be split from outside, so the cost of
		// each figure comes from a second, serial pass on one fresh Runner
		// (later figures reuse the runs earlier ones cached, as in the sweep).
		serial, err := experiments.NewRunner(w.opts)
		if err != nil {
			return nil, err
		}
		for _, f := range figures {
			id := tr.begin(tr.name("experiments.Fig"+f.id, 1))
			_, err := f.run(serial)
			res.layer["experiments.fig_ms."+f.id] = millis(tr.end(id))
			if err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// joulesPerUser recognises an axis of per-user energy and gives the
// factor that turns its values into joules.
func joulesPerUser(label string) (float64, bool) {
	switch label {
	case "total energy per user (J)":
		return 1, true
	case "total energy per user (kJ)":
		return 1000, true
	}
	return 0, false
}

func wellFormed(f *experiments.Figure) bool {
	if len(f.Series) == 0 {
		return false
	}
	for _, s := range f.Series {
		if len(s.X) == 0 || len(s.X) != len(s.Y) {
			return false
		}
	}
	return true
}

func first(xs []string, n int) string {
	return strings.Join(xs[:min(n, len(xs))], "; ")
}
