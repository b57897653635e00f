package signal

import (
	"math"
	"math/bits"
	"sync"
	"testing"
	"unsafe"

	"jointstream/internal/rng"
	"jointstream/internal/units"
)

func statelessCfg() SineConfig {
	return SineConfig{
		Bounds:      DefaultBounds,
		PeriodSlots: 600,
		Phase:       0.7,
		NoiseStdDBm: 30,
	}
}

func TestStatelessSineDeterministicAnyOrder(t *testing.T) {
	tr, err := NewStatelessSine(statelessCfg(), 12345)
	if err != nil {
		t.Fatal(err)
	}
	// Forward pass, then a scrambled re-read: a pure function of the slot
	// must not care about query order or repetition.
	fwd := make([]units.DBm, 512)
	for n := range fwd {
		fwd[n] = tr.At(n)
	}
	for _, n := range []int{511, 0, 17, 17, 300, 1, 499} {
		if got := tr.At(n); got != fwd[n] {
			t.Fatalf("slot %d: re-read %v != first read %v", n, got, fwd[n])
		}
	}
	// A second trace with the same seed is the same function.
	tr2, err := NewStatelessSine(statelessCfg(), 12345)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 512; n++ {
		if got := tr2.At(n); got != fwd[n] {
			t.Fatalf("slot %d: rebuilt trace %v != original %v", n, got, fwd[n])
		}
	}
}

func TestStatelessSineBoundsAndSeeds(t *testing.T) {
	a, _ := NewStatelessSine(statelessCfg(), 1)
	b, _ := NewStatelessSine(statelessCfg(), 2)
	same := 0
	for n := 0; n < 1000; n++ {
		va, vb := a.At(n), b.At(n)
		for _, v := range []units.DBm{va, vb} {
			if v < DefaultBounds.Min || v > DefaultBounds.Max {
				t.Fatalf("slot %d: value %v outside bounds", n, v)
			}
		}
		if va == vb {
			same++
		}
	}
	// Distinct seeds must decorrelate; clamp saturation makes occasional
	// collisions legitimate, wholesale agreement is a broken hash.
	if same > 500 {
		t.Fatalf("seeds 1 and 2 agree on %d/1000 slots; streams not decorrelated", same)
	}
}

// The sine is assembled from table entries by two angle additions, so it is
// within a few ULP of math.Sin, not equal to it: 1e-12 dBm on values up to
// 110 in magnitude. The reference takes the angle of n mod P — the kernel
// is exactly periodic, where float64(n)·2π/P loses bits as n grows — and
// the slots cover several periods, a non-square and a prime one, and the
// far end of an unbounded horizon.
func TestStatelessSineZeroNoiseIsPureSine(t *testing.T) {
	for _, period := range []int{600, 1, 2, 24, 601, 7919} {
		cfg := statelessCfg()
		cfg.NoiseStdDBm = 0
		cfg.PeriodSlots = period
		tr, err := NewStatelessSine(cfg, 99)
		if err != nil {
			t.Fatal(err)
		}
		b := cfg.Bounds
		check := func(n int) {
			t.Helper()
			angle := 2*math.Pi*float64(n%period)/float64(period) + cfg.Phase
			want := b.clamp(float64(b.mid()) + b.amplitude()*math.Sin(angle))
			if got := tr.At(n); math.Abs(float64(got-want)) > 1e-12 {
				t.Fatalf("period %d slot %d: %v, analytic sine %v (off by %g)", period, n, got, want, float64(got-want))
			}
		}
		for n := 0; n < 3*period+100; n++ {
			check(n)
		}
		for n := math.MaxInt32 - 100; n < math.MaxInt32; n++ {
			check(n)
		}
	}
}

func TestStatelessSineHasNoMemo(t *testing.T) {
	tr, err := NewStatelessSine(statelessCfg(), 7)
	if err != nil {
		t.Fatal(err)
	}
	// The whole point of the stateless variant: nothing to prewarm, no
	// per-slot state to grow. Implementing Prewarmer would silently
	// reintroduce the O(horizon) memo at fleet scale.
	if _, ok := tr.(Prewarmer); ok {
		t.Fatal("stateless sine must not implement Prewarmer")
	}
}

func TestStatelessSineValidation(t *testing.T) {
	bad := statelessCfg()
	bad.PeriodSlots = 0
	if _, err := NewStatelessSine(bad, 1); err == nil {
		t.Fatal("zero period accepted")
	}
	bad = statelessCfg()
	bad.PeriodSlots = maxStatelessPeriod + 1 // sizes the sine tables
	if _, err := NewStatelessSine(bad, 1); err == nil {
		t.Fatal("period beyond the table bound accepted")
	}
	bad = statelessCfg()
	bad.NoiseStdDBm = -1
	if _, err := NewStatelessSine(bad, 1); err == nil {
		t.Fatal("negative noise accepted")
	}
	bad = statelessCfg()
	bad.Bounds = Bounds{Min: -50, Max: -110}
	if _, err := NewStatelessSine(bad, 1); err == nil {
		t.Fatal("inverted bounds accepted")
	}
}

// TestStatelessSineIsSmallAndCheapToBuild: a fleet builds one trace per
// user per cell before its clock starts (81 920 of them are all of
// fleet_stream's set-up), so the trace is its configuration and seed and
// nothing derived — a cached table pointer or sin, cos of the phase takes
// it past the 48-byte size class and doubles the constructor.
func TestStatelessSineIsSmallAndCheapToBuild(t *testing.T) {
	if size := unsafe.Sizeof(statelessSine{}); size > 48 {
		t.Errorf("statelessSine is %d bytes, want at most 48", size)
	}
	cfg := statelessCfg()
	if allocs := testing.AllocsPerRun(100, func() { sinkTrace, _ = NewStatelessSine(cfg, 5) }); allocs != 1 {
		t.Errorf("NewStatelessSine allocates %v times, want 1", allocs)
	}
	tr, _ := NewStatelessSine(cfg, 5)
	var win [64]units.DBm
	if allocs := testing.AllocsPerRun(100, func() { sinkDBm = tr.At(77); Fill(tr, win[:], 77) }); allocs != 0 {
		t.Errorf("At and Fill allocate %v times, want 0", allocs)
	}
}

// TestStatelessSineFirstFillsOfAPeriodRace: link-window fill workers and
// the ticking goroutine reach a period's table together, and the first of
// them builds it. Whoever wins, every caller reads the same samples. Run
// under -race; the periods are ones no other test in the package touches.
func TestStatelessSineFirstFillsOfAPeriodRace(t *testing.T) {
	for _, period := range []int{7907, 7901, 7883, 7879} {
		cfg := statelessCfg()
		cfg.PeriodSlots = period
		const callers = 16
		got := make([][]units.DBm, callers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tr, err := NewStatelessSine(cfg, 31)
				if err != nil {
					t.Error(err)
					return
				}
				got[g] = make([]units.DBm, 2*period)
				<-start
				Fill(tr, got[g], period-40)
			}()
		}
		close(start)
		wg.Wait()
		for g := 1; g < callers; g++ {
			for k := range got[g] {
				if math.Float64bits(float64(got[g][k])) != math.Float64bits(float64(got[0][k])) {
					t.Fatalf("period %d: caller %d read %v at %d, caller 0 read %v", period, g, got[g][k], k, got[0][k])
				}
			}
		}
	}
}

// refStatelessSample is the realisation the kernel replaced, kept as the
// reference its distribution is held to: math.Sin of the growing angle,
// and the first Box–Muller deviate of the SplitMix64 stream seeded with
// the same word the kernel hands to rng.NormWord.
func refStatelessSample(cfg SineConfig, seed uint64, n int) units.DBm {
	b := cfg.Bounds
	base := float64(b.mid()) + b.amplitude()*math.Sin(2*math.Pi*float64(n)/float64(cfg.PeriodSlots)+cfg.Phase)
	if cfg.NoiseStdDBm > 0 {
		base += cfg.NoiseStdDBm * rng.New(rng.Hash3(seed, uint64(n), statelessSineSalt)).Norm()
	}
	return b.clamp(base)
}

// sampleStats summarises traces × slots samples of one realisation: the
// first four moments of the clamped signal, the share of samples on each
// bound, and the lag-1 autocorrelation of the residual — what is left of a
// sample after subtracting the pure sine, which both realisations share,
// so the fade's own (near 1) autocorrelation does not drown it. The clamp
// ties the residual to the fade, so white noise leaves it near 0.15, not 0.
type sampleStats struct {
	mean, variance, skew, kurtosis float64
	atMin, atMax                   float64
	lag1                           float64
}

func statelessStats(traces, slots int, sample func(cfg SineConfig, seed uint64, n int) units.DBm) sampleStats {
	var s1, s2, s3, s4, lo, hi float64
	var r1, r2, rLag float64
	src := rng.New(77)
	for u := 0; u < traces; u++ {
		cfg := statelessCfg()
		cfg.Phase = src.Uniform(0, 2*math.Pi)
		quiet := cfg
		quiet.NoiseStdDBm = 0
		seed := src.Uint64()
		prev := 0.0
		for n := 0; n < slots; n++ {
			v := sample(cfg, seed, n)
			x := float64(v)
			s1 += x
			s2 += x * x
			s3 += x * x * x
			s4 += x * x * x * x
			if v == cfg.Bounds.Min {
				lo++
			}
			if v == cfg.Bounds.Max {
				hi++
			}
			r := x - float64(refStatelessSample(quiet, 0, n))
			r1 += r
			r2 += r * r
			if n > 0 {
				rLag += r * prev
			}
			prev = r
		}
	}
	n := float64(traces * slots)
	mean := s1 / n
	m2 := s2/n - mean*mean
	m3 := s3/n - 3*mean*s2/n + 2*mean*mean*mean
	m4 := s4/n - 4*mean*s3/n + 6*mean*mean*s2/n - 3*mean*mean*mean*mean
	rMean := r1 / n
	return sampleStats{
		mean: mean, variance: m2, skew: m3 / math.Pow(m2, 1.5), kurtosis: m4 / (m2 * m2),
		atMin: lo / n, atMax: hi / n,
		lag1: (rLag/n - rMean*rMean) / (r2/n - rMean*rMean),
	}
}

// TestStatelessSineDistributionMatchesReference: the kernel draws other
// bits than the realisation it replaced, from the same distribution. Over
// 4 M samples each (64 phases and seeds × 65 536 slots) the two agree on
// mean, variance, skewness, kurtosis and the mass clamped onto either
// bound, and on the lag-1 autocorrelation of what the noise and the clamp
// add to the sine, to within sampling error. That rng.NormWord is N(0, 1)
// itself and white along a run of slots — Kolmogorov–Smirnov, tail mass,
// lag-1 of the bare deviates — is internal/rng's test.
func TestStatelessSineDistributionMatchesReference(t *testing.T) {
	traces, slots := 64, 1<<16
	if testing.Short() {
		slots = 1 << 12
	}
	n := float64(traces * slots)
	ref := statelessStats(traces, slots, refStatelessSample)
	got := statelessStats(traces, slots, func(cfg SineConfig, seed uint64, n int) units.DBm {
		tr, err := NewStatelessSine(cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		return tr.At(n)
	})
	t.Logf("reference %+v", ref)
	t.Logf("kernel    %+v", got)
	// The clamped signal spans 60 dBm with a standard deviation near 22,
	// so each statistic's sampling error is a small multiple of 1/√n; six
	// of them, on the difference of two independent estimates (× √2).
	tol := 6 * math.Sqrt2 / math.Sqrt(n)
	for _, c := range []struct {
		name      string
		got, want float64
		scale     float64
	}{
		{"mean", got.mean, ref.mean, 22},
		{"variance", got.variance, ref.variance, 22 * 22 * 1.5},
		{"skewness", got.skew, ref.skew, 2.5},
		{"kurtosis", got.kurtosis, ref.kurtosis, 5},
		{"mass at lower bound", got.atMin, ref.atMin, 0.5},
		{"mass at upper bound", got.atMax, ref.atMax, 0.5},
		{"residual lag-1 autocorrelation", got.lag1, ref.lag1, 1},
	} {
		if math.Abs(c.got-c.want) > tol*c.scale {
			t.Errorf("%s: kernel %g, reference %g, differ by more than %g", c.name, c.got, c.want, tol*c.scale)
		}
	}
	if got.atMin < 0.05 || got.atMax < 0.05 {
		t.Errorf("clamp mass %g / %g: the configuration no longer reaches the bounds", got.atMin, got.atMax)
	}
}

// The three costs the stateless channel has: a sample inside a link-window
// fill (a 64-slot window, as the fleet's tiles are), a lone At (the
// gateway's LocalEndpoint reads one per session per Step), and building a
// trace (a fleet builds one per user per cell before it starts).
var (
	sinkDBm   units.DBm
	sinkTrace Trace
)

func BenchmarkStatelessFill(b *testing.B) {
	tr, err := NewStatelessSine(statelessCfg(), 12345)
	if err != nil {
		b.Fatal(err)
	}
	var win [64]units.DBm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Fill(tr, win[:], i*len(win))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(win)), "ns/sample")
	sinkDBm = win[0]
}

func BenchmarkStatelessAt(b *testing.B) {
	tr, err := NewStatelessSine(statelessCfg(), 12345)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkDBm = tr.At(i)
	}
}

func BenchmarkNewStatelessSine(b *testing.B) {
	cfg := statelessCfg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkTrace, _ = NewStatelessSine(cfg, uint64(i))
	}
}

// refKernelSample is the kernel's definition, one slot at a time and
// straight from the formulas: the deviate rng.NormWord(Hash3(seed, n,
// salt)), the sine of slot m = n mod P = h·B + l by angle addition — sin
// and cos of θ_h + φ from those of θ_h and φ, then of θ_l on top — and
// the sample mid + amp·sin + σ·z clamped by Go's float min and max.
func refKernelSample(cfg SineConfig, seed uint64, n int) units.DBm {
	z := 0.0
	if cfg.NoiseStdDBm > 0 {
		z = rng.NormWord(rng.Hash3(seed, uint64(n), statelessSineSalt))
	}
	p := cfg.PeriodSlots
	shift := uint(bits.Len(uint(p-1))+1) / 2
	m := n % p
	hs, hc := math.Sincos(2 * math.Pi * float64(m>>shift<<shift) / float64(p))
	ls, lc := math.Sincos(2 * math.Pi * float64(m&(1<<shift-1)) / float64(p))
	sinP, cosP := math.Sincos(cfg.Phase)
	bs, bc := hs*cosP+hc*sinP, hc*cosP-hs*sinP
	s := bs*lc + bc*ls
	b := cfg.Bounds
	return units.DBm(min(max(float64(b.mid())+b.amplitude()*s+cfg.NoiseStdDBm*z, float64(b.Min)), float64(b.Max)))
}

// TestStatelessFillMatchesReferenceKernel holds Fill to refKernelSample,
// bit for bit, at random windows of configurations: bounds below zero
// (the paper's), above it and across it, a bound at −0 or +0, noise from
// none to so large that samples overflow, periods from one slot to ones
// whose last block is short, and a phase that is not finite.
func TestStatelessFillMatchesReferenceKernel(t *testing.T) {
	negZero := units.DBm(math.Copysign(0, -1))
	bounds := []Bounds{DefaultBounds, {Min: 0, Max: 60}, {Min: -30, Max: 30}, {Min: -20, Max: negZero},
		{Min: negZero, Max: 0}, {Min: 5, Max: 5}, {Min: -1e308, Max: -1e307}}
	noises := []float64{0, 3, 30, 1e306}
	periods := []int{1, 2, 3, 24, 600, 1000, 4099}
	phases := []float64{0, 0.7, -2.5, 1e6, math.Inf(1), math.NaN()}
	src := rng.New(8)
	for trial := 0; trial < 400; trial++ {
		cfg := SineConfig{
			Bounds:      bounds[src.Intn(len(bounds))],
			PeriodSlots: periods[src.Intn(len(periods))],
			Phase:       phases[src.Intn(len(phases))],
			NoiseStdDBm: noises[src.Intn(len(noises))],
		}
		seed := src.Uint64()
		tr, err := NewStatelessSine(cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		from, n := src.Intn(5000), 1+src.Intn(150)
		dst := make([]units.DBm, n)
		Fill(tr, dst, from)
		for k, got := range dst {
			if want := refKernelSample(cfg, seed, from+k); math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
				t.Fatalf("%+v seed %d: Fill(from=%d)[%d] = %v, reference %v", cfg, seed, from, k, got, want)
			}
		}
	}
}
