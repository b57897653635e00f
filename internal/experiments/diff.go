package experiments

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Diff compares two figure sets (e.g. a fresh run against a checked-in
// JSON export) and returns a human-readable list of differences. Values
// are compared with the given relative tolerance (plus a tiny absolute
// floor for near-zero values); titles, axis labels, notes and the order of
// the series must match exactly. An empty result means the runs match.
// Use it to catch regressions in the reproduction across code changes.
func Diff(got, want []*Figure, relTol float64) ([]string, error) {
	if relTol < 0 {
		return nil, fmt.Errorf("experiments: negative tolerance %v", relTol)
	}
	var diffs []string
	byID := func(figs []*Figure) (map[string]*Figure, error) {
		m := make(map[string]*Figure, len(figs))
		for _, f := range figs {
			if f == nil {
				return nil, fmt.Errorf("experiments: nil figure in diff input")
			}
			if _, dup := m[f.ID]; dup {
				return nil, fmt.Errorf("experiments: duplicate figure %s", f.ID)
			}
			m[f.ID] = f
		}
		return m, nil
	}
	gm, err := byID(got)
	if err != nil {
		return nil, err
	}
	wm, err := byID(want)
	if err != nil {
		return nil, err
	}
	for id := range wm {
		if _, ok := gm[id]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s: missing from new run", id))
		}
	}
	for id, g := range gm {
		w, ok := wm[id]
		if !ok {
			diffs = append(diffs, fmt.Sprintf("%s: not in baseline", id))
			continue
		}
		diffs = append(diffs, diffFigure(g, w, relTol)...)
	}
	sort.Strings(diffs)
	return diffs, nil
}

func diffFigure(got, want *Figure, relTol float64) []string {
	var diffs []string
	for _, f := range []struct{ name, got, want string }{
		{"title", got.Title, want.Title},
		{"x label", got.XLabel, want.XLabel},
		{"y label", got.YLabel, want.YLabel},
	} {
		if f.got != f.want {
			diffs = append(diffs, fmt.Sprintf("%s: %s %q vs baseline %q", got.ID, f.name, f.got, f.want))
		}
	}
	if !slices.Equal(got.Notes, want.Notes) {
		diffs = append(diffs, fmt.Sprintf("%s: notes %q vs baseline %q", got.ID, got.Notes, want.Notes))
	}
	ws := make(map[string]*Series, len(want.Series))
	for i := range want.Series {
		ws[want.Series[i].Label] = &want.Series[i]
	}
	gs := make(map[string]*Series, len(got.Series))
	for i := range got.Series {
		gs[got.Series[i].Label] = &got.Series[i]
	}
	missing := 0
	for label := range ws {
		if _, ok := gs[label]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s/%s: series missing from new run", got.ID, label))
			missing++
		}
	}
	// The same labels in another order: each series matches, the plot does not.
	if gl, wl := seriesLabels(got), seriesLabels(want); missing == 0 && len(gs) == len(ws) && !slices.Equal(gl, wl) {
		diffs = append(diffs, fmt.Sprintf("%s: series order %q vs baseline %q", got.ID, gl, wl))
	}
	for label, g := range gs {
		w, ok := ws[label]
		if !ok {
			diffs = append(diffs, fmt.Sprintf("%s/%s: series not in baseline", got.ID, label))
			continue
		}
		if len(g.Y) != len(w.Y) {
			diffs = append(diffs, fmt.Sprintf("%s/%s: %d points vs baseline %d", got.ID, label, len(g.Y), len(w.Y)))
			continue
		}
		for i := range g.Y {
			if !approxEqual(g.Y[i], w.Y[i], relTol) || !approxEqual(g.X[i], w.X[i], relTol) {
				diffs = append(diffs, fmt.Sprintf("%s/%s[%d]: (%.6g, %.6g) vs baseline (%.6g, %.6g)",
					got.ID, label, i, g.X[i], g.Y[i], w.X[i], w.Y[i]))
			}
		}
	}
	return diffs
}

func seriesLabels(f *Figure) []string {
	out := make([]string, len(f.Series))
	for i, s := range f.Series {
		out[i] = s.Label
	}
	return out
}

// approxEqual compares with relative tolerance and a 1e-9 absolute floor.
func approxEqual(a, b, relTol float64) bool {
	d := math.Abs(a - b)
	if d <= 1e-9 {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return d <= relTol*scale
}
