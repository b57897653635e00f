package experiments

import (
	"bytes"
	"flag"
	"os"
	"slices"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/quick_*.golden.* from the current figures")

const (
	goldenFigures = "testdata/quick_figures.golden.json"
	goldenSeeds   = "testdata/quick_seeds.golden.txt"
)

// quickFigures draws every registry row on r, the 13 paper figures and
// the 8 extension figures, and the multi-seed table as -ext seeds prints it.
func quickFigures(t *testing.T, r *Runner) ([]*Figure, []byte) {
	t.Helper()
	var figs []*Figure
	for _, f := range slices.Concat(figures, extensions) {
		fig, err := f.draw(r)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		figs = append(figs, fig)
	}
	var seeds bytes.Buffer
	if err := r.Extension(&seeds, "seeds", 3); err != nil {
		t.Fatal(err)
	}
	return figs, seeds.Bytes()
}

// TestQuickFiguresGolden pins every figure the package draws at
// QuickOptions: values exactly (Diff at tolerance 0), titles, axis labels,
// notes and series order, and the multi-seed table byte for byte. Rewrite
// the fixtures (-update) only for a deliberate change of what a figure
// computes, and read the diff.
func TestQuickFiguresGolden(t *testing.T) {
	figs, seeds := quickFigures(t, quickRunner(t))
	if *updateGolden {
		var buf bytes.Buffer
		if err := WriteJSON(&buf, figs); err != nil {
			t.Fatal(err)
		}
		for path, b := range map[string][]byte{goldenFigures: buf.Bytes(), goldenSeeds: seeds} {
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("rewrote %s (%d figures) and %s", goldenFigures, len(figs), goldenSeeds)
		return
	}
	f, err := os.Open(goldenFigures)
	if err != nil {
		t.Fatalf("read fixture (run with -update to create it): %v", err)
	}
	defer f.Close()
	want, err := ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != len(want) {
		t.Errorf("%d figures, fixture has %d", len(figs), len(want))
	}
	diffs, err := Diff(figs, want, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diffs {
		t.Error(d)
	}
	wantSeeds, err := os.ReadFile(goldenSeeds)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seeds, wantSeeds) {
		t.Errorf("multi-seed table:\n%s\nfixture:\n%s", seeds, wantSeeds)
	}
}
