package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// cacheSize reports the number of memoized runs.
func (r *Runner) cacheSize() int {
	return len(r.results.snapshot())
}

// ext draws the extension figure called name.
func (r *Runner) ext(name string) (*Figure, error) {
	return r.lookup(extensions, "extension", name)
}

func TestJSONRoundTrip(t *testing.T) {
	figs := []*Figure{
		{
			ID: "Fig. X", Title: "t", XLabel: "x", YLabel: "y",
			Notes: []string{"n1"},
			Series: []Series{
				{Label: "a", X: []float64{1, 2}, Y: []float64{3, 4}},
				{Label: "b", X: []float64{5}, Y: []float64{6}},
			},
		},
		{ID: "Fig. Y", Title: "u", XLabel: "x2", YLabel: "y2"},
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, figs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("got %d figures", len(back))
	}
	if !reflect.DeepEqual(figs[0].Series, back[0].Series) {
		t.Errorf("series mismatch: %+v vs %+v", figs[0].Series, back[0].Series)
	}
	if back[0].ID != "Fig. X" || back[1].Title != "u" {
		t.Error("metadata mismatch")
	}
}

func TestWriteJSONRejectsNil(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, []*Figure{nil}); err == nil {
		t.Error("nil figure accepted")
	}
}

func TestReadJSONRejectsBadInput(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	mismatch := `[{"id":"f","series":[{"label":"s","x":[1,2],"y":[1]}]}]`
	if _, err := ReadJSON(strings.NewReader(mismatch)); err == nil {
		t.Error("x/y length mismatch accepted")
	}
}

func TestJSONExportOfRealFigure(t *testing.T) {
	r := quickRunner(t)
	fig, err := r.Fig4a()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, []*Figure{fig}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"Fig. 4a"`) {
		t.Error("exported JSON missing figure ID")
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || len(back[0].Series) != len(fig.Series) {
		t.Error("round trip lost series")
	}
}

func TestRenderSeedStats(t *testing.T) {
	stats := []seedStats{{
		label: "EMA", seeds: 5,
		rebufferMean: 12.3, rebufferStd: 1.2,
		energyMean: 200.5, energyStd: 8.7,
	}}
	var sb strings.Builder
	if err := renderSeedStats(&sb, stats); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"EMA", "12.3 +/- 1.2", "200.5 +/- 8.7"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}
