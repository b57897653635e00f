package main

import (
	"bytes"
	"strings"
	"testing"

	"jointstream/internal/experiments"
)

func sampleFigures() []*experiments.Figure {
	return []*experiments.Figure{
		{
			ID: "Fig. 1", Title: "demo", XLabel: "users", YLabel: "energy (J)",
			Notes: []string{"note one"},
			Series: []experiments.Series{
				{Label: "Default", X: []float64{20, 30, 40}, Y: []float64{200, 220, 250}},
				{Label: "EMA", X: []float64{20, 30, 40}, Y: []float64{180, 185, 190}},
			},
		},
		{
			ID: "Fig. 2", Title: "cdf", XLabel: "fairness", YLabel: "CDF",
			Series: []experiments.Series{
				{Label: "a", X: []float64{0, 0.5, 1}, Y: []float64{0, 0.5, 1}},
			},
		},
	}
}

func TestWriteHTMLStructure(t *testing.T) {
	var buf bytes.Buffer
	if err := writeHTML(&buf, "test report", sampleFigures()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"<!DOCTYPE html>",
		"<title>test report</title>",
		"Fig. 1 — demo",
		"Fig. 2 — cdf",
		"note one",
		"<svg", "</svg>",
		"polyline",
		"Default", "EMA",
		"users", "energy (J)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in HTML output", want)
		}
	}
	if got := strings.Count(out, "<svg"); got != 2 {
		t.Errorf("got %d charts, want 2", got)
	}
	// Two series -> two polylines in the first chart plus one in the second.
	if got := strings.Count(out, "<polyline"); got != 3 {
		t.Errorf("got %d polylines, want 3", got)
	}
}

func TestWriteHTMLDefaultTitle(t *testing.T) {
	var buf bytes.Buffer
	if err := writeHTML(&buf, "", sampleFigures()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "jointstream experiment report") {
		t.Error("default title missing")
	}
}

func TestWriteHTMLRejectsNilFigure(t *testing.T) {
	var buf bytes.Buffer
	if err := writeHTML(&buf, "t", []*experiments.Figure{nil}); err == nil {
		t.Error("nil figure accepted")
	}
}

func TestWriteHTMLRejectsMalformedSeries(t *testing.T) {
	var buf bytes.Buffer
	bad := []*experiments.Figure{{
		ID: "x", Series: []experiments.Series{{Label: "s", X: []float64{1, 2}, Y: []float64{1}}},
	}}
	if err := writeHTML(&buf, "t", bad); err == nil {
		t.Error("mismatched series accepted")
	}
}

func TestWriteHTMLEmptyFigure(t *testing.T) {
	var buf bytes.Buffer
	figs := []*experiments.Figure{{ID: "empty", Title: "no data"}}
	if err := writeHTML(&buf, "t", figs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "(no data)") {
		t.Error("empty figure placeholder missing")
	}
}

func TestLabelsAreEscaped(t *testing.T) {
	var buf bytes.Buffer
	figs := []*experiments.Figure{{
		ID: "esc", Title: "t", XLabel: `<script>alert(1)</script>`, YLabel: "y",
		Series: []experiments.Series{
			{Label: `<b>bold</b>`, X: []float64{1, 2}, Y: []float64{1, 2}},
		},
	}}
	if err := writeHTML(&buf, "t", figs); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "<script>") || strings.Contains(out, "<b>bold") {
		t.Error("labels not escaped")
	}
	if !strings.Contains(out, "&lt;script&gt;") {
		t.Error("escaped x-label missing")
	}
}

func TestFlatSeriesRendered(t *testing.T) {
	// A constant series must not divide by zero or vanish.
	var buf bytes.Buffer
	figs := []*experiments.Figure{{
		ID: "flat", Title: "t", XLabel: "x", YLabel: "y",
		Series: []experiments.Series{
			{Label: "const", X: []float64{1, 2, 3}, Y: []float64{5, 5, 5}},
		},
	}}
	if err := writeHTML(&buf, "t", figs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "polyline") {
		t.Error("flat series not drawn")
	}
}

func TestTickLabel(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0"}, {0.05, "0.05"}, {2.5, "2.5"}, {150, "150"},
		{25000, "25k"}, {3.2e6, "3.2M"},
	}
	for _, c := range cases {
		if got := tickLabel(c.in); got != c.want {
			t.Errorf("tickLabel(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestRealFigureRenders(t *testing.T) {
	r, err := experiments.NewRunner(experiments.QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	fig, err := r.Fig4a()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeHTML(&buf, "real", []*experiments.Figure{fig}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Fig. 4a") {
		t.Error("real figure missing from report")
	}
}
