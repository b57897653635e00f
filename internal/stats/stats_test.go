package stats

import (
	"math"
	"testing"
	"testing/quick"

	"jointstream/internal/rng"
)

func TestDescribe(t *testing.T) {
	s, err := Describe([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 8 || math.Abs(s.Mean-5) > 1e-12 {
		t.Errorf("sample = %+v", s)
	}
	// Unbiased variance: SS = 32, n-1 = 7.
	if math.Abs(s.Var-32.0/7) > 1e-12 {
		t.Errorf("Var = %v, want %v", s.Var, 32.0/7)
	}
}

func TestDescribeValidation(t *testing.T) {
	if _, err := Describe(nil); err == nil {
		t.Error("empty sample accepted")
	}
	if _, err := Describe([]float64{1}); err == nil {
		t.Error("single observation accepted")
	}
	if _, err := Describe([]float64{1, math.NaN()}); err == nil {
		t.Error("NaN accepted")
	}
	if _, err := Describe([]float64{1, math.Inf(1)}); err == nil {
		t.Error("Inf accepted")
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
	a, _ := Describe([]float64{10.1, 10.2, 9.9, 10.0, 10.1})
	b, _ := Describe([]float64{12.0, 12.1, 11.9, 12.2, 12.0})
	res, err := Welch(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Significant {
		t.Errorf("clear difference not significant: %+v", res)
	}
	if res.T >= 0 {
		t.Errorf("T = %v, want negative (a < b)", res.T)
	}
	if res.P > 1e-6 {
		t.Errorf("P = %v, want tiny", res.P)
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
		a, _ := Describe(draw())
		b, _ := Describe(draw())
		res, err := Welch(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if res.Significant {
			falsePositives++
		}
	}
	// Expect ~5% type-I errors; allow generous slack.
	if falsePositives > 15 {
		t.Errorf("%d/%d false positives at alpha=0.05", falsePositives, trials)
	}
}

func TestWelchConstantSamples(t *testing.T) {
	a, _ := Describe([]float64{5, 5, 5})
	b, _ := Describe([]float64{5, 5, 5})
	res, err := Welch(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Significant || res.P != 1 {
		t.Errorf("identical constants flagged: %+v", res)
	}
	c, _ := Describe([]float64{6, 6, 6})
	res, err = Welch(a, c)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Significant || res.P != 0 {
		t.Errorf("deterministic difference not flagged: %+v", res)
	}
}

func TestWelchValidation(t *testing.T) {
	good, _ := Describe([]float64{1, 2, 3})
	if _, err := Welch(good, Sample{N: 1}); err == nil {
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
		a, err := Describe(xa)
		if err != nil {
			return false
		}
		b, err := Describe(xb)
		if err != nil {
			return false
		}
		ab, err := Welch(a, b)
		if err != nil {
			return false
		}
		ba, err := Welch(b, a)
		if err != nil {
			return false
		}
		if ab.P < 0 || ab.P > 1 {
			return false
		}
		return math.Abs(ab.P-ba.P) < 1e-9 && math.Abs(ab.T+ba.T) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
