package experiments

import (
	"fmt"
	"testing"
)

func TestExtLTE(t *testing.T) {
	r := quickRunner(t)
	fig, err := r.ext("lte")
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 4) // (3G, LTE) x (rebuffer, energy)
	// The paper's §VI claim is "similar results in LTE networks": the
	// algorithms keep their qualitative advantage. Check RTMA still cuts
	// rebuffering versus Default under the LTE models (series Y order is
	// [Default, RTMA, EMA]).
	for _, s := range fig.Series {
		if s.Label == "LTE rebuffer" {
			if s.Y[1] >= s.Y[0] {
				t.Errorf("LTE: RTMA rebuffering %v not below Default %v", s.Y[1], s.Y[0])
			}
		}
	}
}

func TestExtVBR(t *testing.T) {
	r := quickRunner(t)
	fig, err := r.ext("vbr")
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 2)
	if fig.ID != "Ext. VBR" {
		t.Errorf("ID = %q", fig.ID)
	}
}

func TestExtArrivals(t *testing.T) {
	r := quickRunner(t)
	fig, err := r.ext("arrivals")
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 2)
}

func TestExtFastDormancy(t *testing.T) {
	r := quickRunner(t)
	fig, err := r.ext("dormancy")
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 2)
	normal, fd := fig.Series[0], fig.Series[1]
	// Fast dormancy must never increase any scheduler's energy, and must
	// strictly help at least one of the gap-prone schedulers (ON-OFF or
	// EStreamer, indices 1 and 2).
	helped := false
	for i := range normal.Y {
		if fd.Y[i] > normal.Y[i]*1.0001 {
			t.Errorf("fast dormancy increased energy for algorithm %d: %v > %v", i, fd.Y[i], normal.Y[i])
		}
		if (i == 1 || i == 2) && fd.Y[i] < normal.Y[i]*0.999 {
			helped = true
		}
	}
	if !helped {
		t.Error("fast dormancy helped neither ON-OFF nor EStreamer")
	}
}

func TestExtOracleGap(t *testing.T) {
	r := quickRunner(t)
	fig, err := r.ext("oracle")
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 3)
	lower, ema, upper := fig.Series[0], fig.Series[1], fig.Series[2]
	for i := range lower.Y {
		if lower.Y[i] > upper.Y[i]+1e-9 {
			t.Errorf("point %d: oracle lower %v above upper %v", i, lower.Y[i], upper.Y[i])
		}
		// EMA is an online policy: it cannot beat the offline lower bound.
		if ema.Y[i] < lower.Y[i]-1e-9 {
			t.Errorf("point %d: EMA %v below the oracle lower bound %v", i, ema.Y[i], lower.Y[i])
		}
	}
}

func TestExtMultiSeed(t *testing.T) {
	r := quickRunner(t)
	stats, err := r.multiSeed(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 3 {
		t.Fatalf("got %d rows", len(stats))
	}
	labels := map[string]bool{}
	for _, st := range stats {
		labels[st.label] = true
		if st.seeds != 3 {
			t.Errorf("%s: seeds = %d", st.label, st.seeds)
		}
		if st.rebufferMean < 0 || st.energyMean <= 0 {
			t.Errorf("%s: implausible means %+v", st.label, st)
		}
		if st.rebufferStd < 0 || st.energyStd < 0 {
			t.Errorf("%s: negative std %+v", st.label, st)
		}
	}
	for _, want := range []string{"Default", "RTMA", "EMA"} {
		if !labels[want] {
			t.Errorf("missing %s row", want)
		}
	}
}

func TestExtMultiSeedValidation(t *testing.T) {
	r := quickRunner(t)
	if _, err := r.multiSeed(1); err == nil {
		t.Error("single seed accepted")
	}
}

func TestExtABR(t *testing.T) {
	r := quickRunner(t)
	fig, err := r.ext("abr")
	if err != nil {
		t.Fatal(err)
	}
	// Not checkFigure: the QoE series may legitimately go negative under
	// heavy stalling, which checkFigure treats as malformed.
	if len(fig.Series) != 4 {
		t.Fatalf("got %d series, want 4", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.X) != 3 || len(s.Y) != 3 {
			t.Fatalf("%s: bad series lengths", s.Label)
		}
	}
	quality := fig.Series[2]
	for i, q := range quality.Y {
		if q < 150 || q > 750 {
			t.Errorf("algorithm %d mean quality %v outside the ladder", i, q)
		}
	}
}

func TestExtAdaptive(t *testing.T) {
	r := quickRunner(t)
	fig, err := r.ext("adaptive")
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 4)
	// Both variants must save energy versus the Default reference at the
	// largest quick-scale N.
	def, err := r.defaultRun(scenario{users: r.opts.UserCounts[len(r.opts.UserCounts)-1], avgSizeMB: r.opts.CDFAvgSizeMB})
	if err != nil {
		t.Fatal(err)
	}
	defEn := float64(def.MeanEnergyPerUser()) / 1000
	for _, s := range fig.Series {
		if s.Label == "EMA energy (J)" || s.Label == "AdaptiveEMA energy (J)" {
			last := s.Y[len(s.Y)-1]
			if last >= defEn {
				t.Errorf("%s = %v not below Default %v", s.Label, last, defEn)
			}
		}
	}
}

func TestExtPredictive(t *testing.T) {
	r := quickRunner(t)
	fig, err := r.ext("predictive")
	if err != nil {
		t.Fatal(err)
	}
	// 4 flat reference series + (energy, rebuffer) per error level.
	checkFigure(t, fig, 4+2*len(predictiveErrLevels))
	byLabel := map[string]Series{}
	for _, s := range fig.Series {
		byLabel[s.Label] = s
	}
	lower, upper := byLabel["oracle lower (J)"], byLabel["oracle upper (J)"]
	if lower.Y[0] > upper.Y[0]+1e-9 {
		t.Errorf("oracle lower %v above upper %v", lower.Y[0], upper.Y[0])
	}
	// K=0 is the myopic Default baseline by construction: the leftmost
	// exact-forecast point must reproduce the Default run exactly, at
	// every error level (a zero-depth window reads no forecast at all).
	def, err := r.defaultRun(r.cdfScenario())
	if err != nil {
		t.Fatal(err)
	}
	defEn := float64(def.MeanEnergyPerUser()) / 1000
	for _, errFrac := range predictiveErrLevels {
		en := byLabel[fmt.Sprintf("Predictive(err=%g) energy (J)", errFrac)]
		if en.Y[0] != defEn {
			t.Errorf("err=%g: K=0 energy %v != Default %v", errFrac, en.Y[0], defEn)
		}
		// Every Predictive total energy dominates the transmission-only
		// oracle lower bound.
		for i, y := range en.Y {
			if y < lower.Y[i]-1e-9 {
				t.Errorf("err=%g K-point %d: energy %v below oracle lower %v", errFrac, i, y, lower.Y[i])
			}
		}
	}
	// The lookahead runs memoize like every other scheduler run: a second
	// sweep must add no simulations.
	before := r.cacheSize()
	if _, err := r.ext("predictive"); err != nil {
		t.Fatal(err)
	}
	if after := r.cacheSize(); after != before {
		t.Errorf("second sweep grew the run cache %d -> %d", before, after)
	}
}
