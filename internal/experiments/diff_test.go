package experiments

import (
	"strings"
	"testing"
)

func diffFigs() []*Figure {
	return []*Figure{
		{
			ID: "Fig. A",
			Series: []Series{
				{Label: "s1", X: []float64{1, 2}, Y: []float64{10, 20}},
				{Label: "s2", X: []float64{1, 2}, Y: []float64{5, 6}},
			},
		},
		{
			ID:     "Fig. B",
			Series: []Series{{Label: "only", X: []float64{0}, Y: []float64{0}}},
		},
	}
}

func TestDiffIdentical(t *testing.T) {
	diffs, err := Diff(diffFigs(), diffFigs(), 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 0 {
		t.Errorf("identical sets differ: %v", diffs)
	}
}

func TestDiffWithinTolerance(t *testing.T) {
	a := diffFigs()
	b := diffFigs()
	b[0].Series[0].Y[0] = 10.05 // 0.5% off
	diffs, err := Diff(a, b, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 0 {
		t.Errorf("0.5%% drift flagged at 1%% tolerance: %v", diffs)
	}
}

func TestDiffBeyondTolerance(t *testing.T) {
	a := diffFigs()
	b := diffFigs()
	b[0].Series[0].Y[1] = 25 // 25% off
	diffs, err := Diff(a, b, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 1 {
		t.Fatalf("got %d diffs, want 1: %v", len(diffs), diffs)
	}
	if !strings.Contains(diffs[0], "Fig. A/s1[1]") {
		t.Errorf("diff message %q missing location", diffs[0])
	}
}

func TestDiffMissingFigure(t *testing.T) {
	a := diffFigs()[:1]
	b := diffFigs()
	diffs, err := Diff(a, b, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range diffs {
		if strings.Contains(d, "Fig. B") && strings.Contains(d, "missing") {
			found = true
		}
	}
	if !found {
		t.Errorf("missing-figure diff not reported: %v", diffs)
	}
	// Reverse direction: extra figure in the new run.
	diffs, err = Diff(b, a, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	found = false
	for _, d := range diffs {
		if strings.Contains(d, "Fig. B") && strings.Contains(d, "not in baseline") {
			found = true
		}
	}
	if !found {
		t.Errorf("extra-figure diff not reported: %v", diffs)
	}
}

func TestDiffSeriesMismatch(t *testing.T) {
	a := diffFigs()
	a[0].Series = a[0].Series[:1]
	diffs, err := Diff(a, diffFigs(), 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) == 0 || !strings.Contains(diffs[0], "s2") {
		t.Errorf("missing-series diff not reported: %v", diffs)
	}
}

func TestDiffLengthMismatch(t *testing.T) {
	a := diffFigs()
	a[0].Series[0].X = a[0].Series[0].X[:1]
	a[0].Series[0].Y = a[0].Series[0].Y[:1]
	diffs, err := Diff(a, diffFigs(), 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) == 0 || !strings.Contains(diffs[0], "points") {
		t.Errorf("length-mismatch diff not reported: %v", diffs)
	}
}

func TestDiffValidation(t *testing.T) {
	if _, err := Diff(diffFigs(), diffFigs(), -1); err == nil {
		t.Error("negative tolerance accepted")
	}
	if _, err := Diff([]*Figure{nil}, diffFigs(), 0.01); err == nil {
		t.Error("nil figure accepted")
	}
	dup := append(diffFigs(), diffFigs()[0])
	if _, err := Diff(dup, diffFigs(), 0.01); err == nil {
		t.Error("duplicate figure ID accepted")
	}
}

func TestDiffNearZeroValues(t *testing.T) {
	a := []*Figure{{ID: "z", Series: []Series{{Label: "s", X: []float64{0}, Y: []float64{0}}}}}
	b := []*Figure{{ID: "z", Series: []Series{{Label: "s", X: []float64{0}, Y: []float64{1e-12}}}}}
	diffs, err := Diff(a, b, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 0 {
		t.Errorf("sub-epsilon difference flagged: %v", diffs)
	}
}

// TestDiffMetadata: a figure whose values all match but whose title, axis
// labels, notes or series order changed is a different figure.
func TestDiffMetadata(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		edit       func(*Figure)
	}{
		{"title", `title "renamed"`, func(f *Figure) { f.Title = "renamed" }},
		{"x label", `x label "users"`, func(f *Figure) { f.XLabel = "users" }},
		{"y label", `y label "total energy per user (kJ)"`, func(f *Figure) { f.YLabel = "total energy per user (kJ)" }},
		{"dropped note", `notes ["N=40"]`, func(f *Figure) { f.Notes = f.Notes[:1] }},
		{"edited note", `"V=0.5"`, func(f *Figure) { f.Notes[1] = "V=0.5" }},
		{"series order", `series order ["s2" "s1"]`, func(f *Figure) { f.Series[0], f.Series[1] = f.Series[1], f.Series[0] }},
	} {
		want := diffFigs()
		want[0].Title, want[0].XLabel, want[0].YLabel = "t", "x", "y"
		want[0].Notes = []string{"N=40", "V=0.25"}
		got := diffFigs()
		got[0].Title, got[0].XLabel, got[0].YLabel = "t", "x", "y"
		got[0].Notes = []string{"N=40", "V=0.25"}
		tc.edit(got[0])
		diffs, err := Diff(got, want, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(diffs) != 1 || !strings.HasPrefix(diffs[0], "Fig. A: ") || !strings.Contains(diffs[0], tc.want) {
			t.Errorf("%s: diffs %q, want one Fig. A line naming %s", tc.name, diffs, tc.want)
		}
	}
	// A series added or dropped is reported as such, not again as an order.
	got := diffFigs()
	got[0].Series = append(got[0].Series, Series{Label: "s3", X: []float64{1}, Y: []float64{1}})
	if diffs, _ := Diff(got, diffFigs(), 0); len(diffs) != 1 || !strings.Contains(diffs[0], "s3: series not in baseline") {
		t.Errorf("extra series: diffs %q", diffs)
	}
}
