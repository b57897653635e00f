// Package stats provides the small amount of inferential statistics the
// multi-seed robustness analysis needs: sample moments, Welch's unequal-
// variance t-test, and normal-approximation confidence intervals. It lets
// the harness say not just "EMA used less energy on 5 seeds" but whether
// that difference is distinguishable from seed noise.
package stats

import (
	"fmt"
	"math"
)

// Sample summarizes one group of observations.
type Sample struct {
	N    int
	Mean float64
	// Var is the unbiased (n−1) sample variance.
	Var float64
}

// Describe computes a Sample; it requires at least two observations so
// the variance is defined.
func Describe(xs []float64) (Sample, error) {
	if len(xs) < 2 {
		return Sample{}, fmt.Errorf("stats: need at least 2 observations, got %d", len(xs))
	}
	var mean float64
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return Sample{}, fmt.Errorf("stats: non-finite observation %v", x)
		}
		mean += x
	}
	mean /= float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return Sample{N: len(xs), Mean: mean, Var: ss / float64(len(xs)-1)}, nil
}

// TTest is the result of Welch's two-sample test.
type TTest struct {
	// T is the test statistic (a.Mean − b.Mean over the pooled stderr).
	T float64
	// DF is the Welch–Satterthwaite degrees of freedom.
	DF float64
	// P is the two-sided p-value.
	P float64
	// Significant reports P < 0.05.
	Significant bool
}

// Welch runs Welch's unequal-variance t-test on two samples.
func Welch(a, b Sample) (TTest, error) {
	if a.N < 2 || b.N < 2 {
		return TTest{}, fmt.Errorf("stats: samples too small (%d, %d)", a.N, b.N)
	}
	va := a.Var / float64(a.N)
	vb := b.Var / float64(b.N)
	se := math.Sqrt(va + vb)
	if se == 0 {
		// Identical constants: no evidence of difference unless the means
		// differ exactly, in which case the difference is deterministic.
		if a.Mean == b.Mean {
			return TTest{T: 0, DF: float64(a.N + b.N - 2), P: 1}, nil
		}
		return TTest{T: math.Inf(sign(a.Mean - b.Mean)), DF: float64(a.N + b.N - 2), P: 0, Significant: true}, nil
	}
	t := (a.Mean - b.Mean) / se
	df := (va + vb) * (va + vb) /
		(va*va/float64(a.N-1) + vb*vb/float64(b.N-1))
	p := 2 * studentTail(math.Abs(t), df)
	return TTest{T: t, DF: df, P: p, Significant: p < 0.05}, nil
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}

// studentTail returns P(T > t) for Student's t with df degrees of freedom,
// via the regularized incomplete beta function:
// P(T > t) = ½ I_{df/(df+t²)}(df/2, ½).
func studentTail(t, df float64) float64 {
	if t <= 0 {
		return 0.5
	}
	x := df / (df + t*t)
	return 0.5 * regIncBeta(df/2, 0.5, x)
}

// regIncBeta computes the regularized incomplete beta function I_x(a, b)
// using the continued-fraction expansion (Numerical Recipes betacf).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	ln := lgamma(a+b) - lgamma(a) - lgamma(b) + a*math.Log(x) + b*math.Log(1-x)
	front := math.Exp(ln)
	if x < (a+1)/(a+b+2) {
		return front * betacf(a, b, x) / a
	}
	return 1 - front*betacf(b, a, 1-x)/b
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// betacf evaluates the continued fraction for the incomplete beta
// function by the modified Lentz method.
func betacf(a, b, x float64) float64 {
	const (
		maxIter = 200
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := 2 * m
		aa := float64(m) * (b - float64(m)) * x / ((qam + float64(m2)) * (a + float64(m2)))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + float64(m2)) * (qap + float64(m2)))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}
