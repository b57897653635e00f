package experiments

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"jointstream/internal/abr"
	"jointstream/internal/cell"
	"jointstream/internal/rng"
	"jointstream/internal/sched"
	"jointstream/internal/units"
	"jointstream/internal/workload"
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

// qoeOf is mpcQoE's score of one user at tau = 1 s.
func qoeOf(t *testing.T, u cell.UserTotals) float64 {
	t.Helper()
	score, err := mpcQoE(1)(&cell.Result{Users: []cell.UserTotals{u}})
	if err != nil {
		t.Fatal(err)
	}
	return score
}

func TestScoreComponents(t *testing.T) {
	// 100 played slots at reference quality, 2 switches, 5 s of stalls of
	// which 1 is startup: 100 - 2 - 3·4 - 1.5·1 = 84.5.
	u := cell.UserTotals{QualitySum: 450 * 100, QualitySlots: 100, QualitySwitches: 2, Rebuffer: 5}
	if got := qoeOf(t, u); math.Abs(got-84.5) > 1e-9 {
		t.Errorf("score = %v, want 84.5", got)
	}
	// Twice the quality scores the quality term twice.
	u.QualitySum *= 2
	if got := qoeOf(t, u); math.Abs(got-184.5) > 1e-9 {
		t.Errorf("score at 2x quality = %v, want 184.5", got)
	}
}

func TestFromUserAttributesStartup(t *testing.T) {
	// One slot of the 5 s is startup (1.5 a second), the rest stalls (3).
	if got, want := qoeOf(t, cell.UserTotals{Rebuffer: 5}), -(3*4 + 1.5); got != want {
		t.Errorf("startup split: score %v, want %v", got, want)
	}
	// Under one slot of rebuffering, none of it is startup.
	if got := qoeOf(t, cell.UserTotals{Rebuffer: 0.5}); got != -1.5 {
		t.Errorf("sub-slot stall: score %v, want -1.5", got)
	}
	if got := qoeOf(t, cell.UserTotals{}); got != 0 {
		t.Errorf("zero-stall score %v, want 0", got)
	}
}

func TestMoreStallsLowerScore(t *testing.T) {
	base := cell.UserTotals{QualitySum: 400 * 100, QualitySlots: 100}
	stalled := base
	stalled.Rebuffer = 10
	if s1, s2 := qoeOf(t, base), qoeOf(t, stalled); s2 >= s1 {
		t.Errorf("stalls did not lower QoE: %v vs %v", s2, s1)
	}
}

func TestMeanScoreEndToEnd(t *testing.T) {
	cfg := cell.PaperConfig()
	cfg.Capacity = 4000
	cfg.MaxSlots = 600
	a := abr.DefaultConfig()
	cfg.ABR = &a
	wlCfg := workload.PaperDefaults(4)
	wlCfg.SizeMin = 30 * units.Megabyte
	wlCfg.SizeMax = 40 * units.Megabyte
	wlCfg.Signal.PeriodSlots = 48
	wl, err := workload.Generate(wlCfg, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := cell.New(cfg, wl, sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	score, err := mpcQoE(cfg.Tau)(res)
	if err != nil {
		t.Fatal(err)
	}
	if score <= 0 {
		t.Errorf("mean QoE = %v, want positive for a mostly-smooth run", score)
	}
}

func TestDescribe(t *testing.T) {
	mean, variance, err := describe([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	// Unbiased variance: SS = 32, n-1 = 7.
	if math.Abs(mean-5) > 1e-12 || math.Abs(variance-32.0/7) > 1e-12 {
		t.Errorf("mean %v, variance %v; want 5, %v", mean, variance, 32.0/7)
	}
}

func TestDescribeValidation(t *testing.T) {
	for _, xs := range [][]float64{nil, {1}, {1, math.NaN()}, {1, math.Inf(1)}} {
		if _, _, err := describe(xs); err == nil {
			t.Errorf("sample %v accepted", xs)
		}
	}
}

func TestStudentTailKnownValues(t *testing.T) {
	// Compare against standard t-table values.
	cases := []struct {
		t, df, want float64
	}{
		{0, 10, 0.5},
		{1.812, 10, 0.05},  // one-sided 5% critical value at df=10
		{2.228, 10, 0.025}, // two-sided 5% critical value at df=10
		{1.96, 1e6, 0.025}, // normal limit
	}
	for _, c := range cases {
		got := studentTail(c.t, c.df)
		if math.Abs(got-c.want) > 0.002 {
			t.Errorf("studentTail(%v, %v) = %v, want %v", c.t, c.df, got, c.want)
		}
	}
}

func TestRegIncBetaEdges(t *testing.T) {
	if regIncBeta(2, 3, 0) != 0 || regIncBeta(2, 3, 1) != 1 {
		t.Error("edge values wrong")
	}
	// I_x(1,1) = x (uniform distribution).
	for _, x := range []float64{0.1, 0.5, 0.9} {
		if got := regIncBeta(1, 1, x); math.Abs(got-x) > 1e-10 {
			t.Errorf("I_%v(1,1) = %v", x, got)
		}
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	if got := regIncBeta(2.5, 4, 0.3) + regIncBeta(4, 2.5, 0.7); math.Abs(got-1) > 1e-10 {
		t.Errorf("symmetry violated: %v", got)
	}
}

func TestWelchDistinguishesClearDifference(t *testing.T) {
	p, err := welchP([]float64{10.1, 10.2, 9.9, 10.0, 10.1}, []float64{12.0, 12.1, 11.9, 12.2, 12.0})
	if err != nil {
		t.Fatal(err)
	}
	if p > 1e-6 {
		t.Errorf("P = %v, want tiny", p)
	}
}

func TestWelchSameDistribution(t *testing.T) {
	src := rng.New(7)
	draw := func() []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = src.Gaussian(50, 5)
		}
		return xs
	}
	falsePositives := 0
	const trials = 100
	for i := 0; i < trials; i++ {
		p, err := welchP(draw(), draw())
		if err != nil {
			t.Fatal(err)
		}
		if p < 0.05 {
			falsePositives++
		}
	}
	// Expect ~5% type-I errors; allow generous slack.
	if falsePositives > 15 {
		t.Errorf("%d/%d false positives at alpha=0.05", falsePositives, trials)
	}
}

func TestWelchConstantSamples(t *testing.T) {
	if p, err := welchP([]float64{5, 5, 5}, []float64{5, 5, 5}); err != nil || p != 1 {
		t.Errorf("identical constants: P = %v (err %v), want 1", p, err)
	}
	if p, err := welchP([]float64{5, 5, 5}, []float64{6, 6, 6}); err != nil || p != 0 {
		t.Errorf("deterministic difference: P = %v (err %v), want 0", p, err)
	}
}

func TestWelchValidation(t *testing.T) {
	if _, err := welchP([]float64{1, 2, 3}, []float64{1}); err == nil {
		t.Error("tiny sample accepted")
	}
}

// Property: the p-value is always in [0,1] and symmetric in the sample
// order.
func TestWelchSymmetryProperty(t *testing.T) {
	f := func(seedsA, seedsB [4]uint8) bool {
		xa := make([]float64, 4)
		xb := make([]float64, 4)
		for i := 0; i < 4; i++ {
			xa[i] = float64(seedsA[i]%100) + float64(i)*0.01
			xb[i] = float64(seedsB[i]%100) + float64(i)*0.013
		}
		ab, err := welchP(xa, xb)
		if err != nil {
			return false
		}
		ba, err := welchP(xb, xa)
		if err != nil {
			return false
		}
		return ab >= 0 && ab <= 1 && math.Abs(ab-ba) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
