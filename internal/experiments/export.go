package experiments

import (
	"encoding/json"
	"fmt"
	"io"
)

// jsonFigure is the stable wire format for exported figures.
type jsonFigure struct {
	ID     string       `json:"id"`
	Title  string       `json:"title"`
	XLabel string       `json:"x_label"`
	YLabel string       `json:"y_label"`
	Notes  []string     `json:"notes,omitempty"`
	Series []jsonSeries `json:"series"`
}

type jsonSeries struct {
	Label string    `json:"label"`
	X     []float64 `json:"x"`
	Y     []float64 `json:"y"`
}

// WriteJSON exports figures as a JSON array, for plotting outside Go.
func WriteJSON(w io.Writer, figs []*Figure) error {
	out := make([]jsonFigure, 0, len(figs))
	for _, f := range figs {
		if f == nil {
			return fmt.Errorf("experiments: nil figure in export")
		}
		jf := jsonFigure{
			ID: f.ID, Title: f.Title, XLabel: f.XLabel, YLabel: f.YLabel,
			Notes:  f.Notes,
			Series: make([]jsonSeries, 0, len(f.Series)),
		}
		for _, s := range f.Series {
			jf.Series = append(jf.Series, jsonSeries{Label: s.Label, X: s.X, Y: s.Y})
		}
		out = append(out, jf)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadJSON parses figures previously exported by WriteJSON, enabling
// diffing of runs across machines or versions.
func ReadJSON(r io.Reader) ([]*Figure, error) {
	var in []jsonFigure
	dec := json.NewDecoder(r)
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("experiments: decode figures: %w", err)
	}
	out := make([]*Figure, 0, len(in))
	for _, jf := range in {
		f := &Figure{
			ID: jf.ID, Title: jf.Title, XLabel: jf.XLabel, YLabel: jf.YLabel,
			Notes: jf.Notes,
		}
		for _, s := range jf.Series {
			if len(s.X) != len(s.Y) {
				return nil, fmt.Errorf("experiments: figure %s series %q: x/y length mismatch", jf.ID, s.Label)
			}
			f.Series = append(f.Series, Series(s))
		}
		out = append(out, f)
	}
	return out, nil
}

// renderSeedStats writes the multi-seed robustness table, including the
// Welch p-values of each algorithm's metrics against Default.
func renderSeedStats(w io.Writer, stats []seedStats) error {
	headers := []string{"algorithm", "seeds", "rebuffer/user (s)", "p", "energy/user (J)", "p"}
	rows := make([][]string, len(stats))
	pval := func(label string, p float64) string {
		if label == "Default" {
			return "-"
		}
		if p < 0.001 {
			return "<0.001"
		}
		return fmt.Sprintf("%.3f", p)
	}
	for i, st := range stats {
		rows[i] = []string{
			st.label,
			fmt.Sprintf("%d", st.seeds),
			fmt.Sprintf("%.1f +/- %.1f", st.rebufferMean, st.rebufferStd),
			pval(st.label, st.rebufferP),
			fmt.Sprintf("%.1f +/- %.1f", st.energyMean, st.energyStd),
			pval(st.label, st.energyP),
		}
	}
	return writeTable(w, headers, rows)
}
