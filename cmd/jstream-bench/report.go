package main

// This file renders regenerated experiment figures (-html) as a
// self-contained HTML document with inline SVG line charts — no external
// assets or JavaScript — so a full reproduction run can be inspected in a
// browser or attached to CI artifacts.

import (
	"fmt"
	"html/template"
	"io"
	"math"
	"strings"

	"jointstream/internal/experiments"
)

// chart geometry (pixels).
const (
	chartW    = 640
	chartH    = 360
	padLeft   = 70
	padRight  = 24
	padTop    = 24
	padBottom = 56
)

// palette cycles through visually distinct series colors.
var palette = []string{
	"#1f77b4", "#d62728", "#2ca02c", "#9467bd",
	"#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
}

// writeHTML renders the figures into a single HTML page.
func writeHTML(w io.Writer, title string, figs []*experiments.Figure) error {
	if title == "" {
		title = "jointstream experiment report"
	}
	type figView struct {
		ID    string
		Title string
		Notes []string
		SVG   template.HTML
	}
	views := make([]figView, 0, len(figs))
	for _, f := range figs {
		if f == nil {
			return fmt.Errorf("report: nil figure")
		}
		svg, err := renderSVG(f)
		if err != nil {
			return fmt.Errorf("report: %s: %w", f.ID, err)
		}
		views = append(views, figView{ID: f.ID, Title: f.Title, Notes: f.Notes, SVG: template.HTML(svg)})
	}
	return pageTmpl.Execute(w, struct {
		Title   string
		Figures []figView
	}{Title: title, Figures: views})
}

var pageTmpl = template.Must(template.New("page").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{{.Title}}</title>
<style>
body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 760px; color: #222; }
h1 { font-size: 1.4rem; }
h2 { font-size: 1.1rem; margin-top: 2.5rem; }
p.note { color: #555; font-size: 0.85rem; margin: 0.15rem 0; }
figure { margin: 0.75rem 0; }
</style>
</head>
<body>
<h1>{{.Title}}</h1>
{{range .Figures}}
<h2>{{.ID}} — {{.Title}}</h2>
{{range .Notes}}<p class="note">{{.}}</p>{{end}}
<figure>{{.SVG}}</figure>
{{end}}
</body>
</html>
`))

// renderSVG draws one figure as an SVG line chart.
func renderSVG(f *experiments.Figure) (string, error) {
	if len(f.Series) == 0 {
		return `<svg xmlns="http://www.w3.org/2000/svg" width="200" height="40"><text x="8" y="24">(no data)</text></svg>`, nil
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range f.Series {
		if len(s.X) != len(s.Y) {
			return "", fmt.Errorf("series %q: x/y length mismatch", s.Label)
		}
		for i := range s.X {
			minX, maxX = math.Min(minX, s.X[i]), math.Max(maxX, s.X[i])
			minY, maxY = math.Min(minY, s.Y[i]), math.Max(maxY, s.Y[i])
		}
	}
	if math.IsInf(minX, 1) {
		return "", fmt.Errorf("no points in figure")
	}
	// Give flat data a visible band, and anchor y at 0 for magnitudes.
	if minY > 0 && minY < maxY*0.5 || minY == maxY {
		minY = math.Min(minY, 0)
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	plotW := float64(chartW - padLeft - padRight)
	plotH := float64(chartH - padTop - padBottom)
	xpos := func(x float64) float64 { return float64(padLeft) + (x-minX)/(maxX-minX)*plotW }
	ypos := func(y float64) float64 { return float64(padTop) + plotH - (y-minY)/(maxY-minY)*plotH }

	var b strings.Builder
	legendRows := (len(f.Series) + 2) / 3
	height := chartH + legendRows*18
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="system-ui, sans-serif" font-size="11">`,
		chartW, height)

	// Axes and gridlines with tick labels.
	fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%.0f" height="%.0f" fill="#fafafa" stroke="#ccc"/>`,
		padLeft, padTop, plotW, plotH)
	for i := 0; i <= 4; i++ {
		fy := minY + (maxY-minY)*float64(i)/4
		y := ypos(fy)
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#e0e0e0"/>`,
			padLeft, y, float64(padLeft)+plotW, y)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" text-anchor="end" fill="#555">%s</text>`,
			padLeft-6, y+4, tickLabel(fy))
		fx := minX + (maxX-minX)*float64(i)/4
		x := xpos(fx)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" text-anchor="middle" fill="#555">%s</text>`,
			x, float64(padTop)+plotH+16, tickLabel(fx))
	}
	// Axis titles.
	fmt.Fprintf(&b, `<text x="%.1f" y="%d" text-anchor="middle" fill="#333">%s</text>`,
		float64(padLeft)+plotW/2, chartH-18, escape(f.XLabel))
	fmt.Fprintf(&b, `<text x="14" y="%.1f" text-anchor="middle" transform="rotate(-90 14 %.1f)" fill="#333">%s</text>`,
		float64(padTop)+plotH/2, float64(padTop)+plotH/2, escape(f.YLabel))

	// Series polylines with point markers.
	for si, s := range f.Series {
		color := palette[si%len(palette)]
		var pts strings.Builder
		for i := range s.X {
			fmt.Fprintf(&pts, "%.1f,%.1f ", xpos(s.X[i]), ypos(s.Y[i]))
		}
		fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.8"/>`,
			strings.TrimSpace(pts.String()), color)
		for i := range s.X {
			fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="2.4" fill="%s"/>`,
				xpos(s.X[i]), ypos(s.Y[i]), color)
		}
	}
	// Legend below the chart, three entries per row.
	for si, s := range f.Series {
		color := palette[si%len(palette)]
		lx := padLeft + (si%3)*190
		ly := chartH + (si/3)*18
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="12" height="12" fill="%s"/>`, lx, ly, color)
		fmt.Fprintf(&b, `<text x="%d" y="%d" fill="#333">%s</text>`, lx+17, ly+10, escape(s.Label))
	}
	b.WriteString(`</svg>`)
	return b.String(), nil
}

// tickLabel renders an axis tick value compactly.
func tickLabel(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case av >= 1e4:
		return fmt.Sprintf("%.0fk", v/1e3)
	case av >= 100:
		return fmt.Sprintf("%.0f", v)
	case av >= 1:
		return fmt.Sprintf("%.1f", v)
	case v == 0:
		return "0"
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

func escape(s string) string { return template.HTMLEscapeString(s) }
