package radio

import (
	"math"
	"testing"

	"jointstream/internal/rng"
	"jointstream/internal/units"
)

// sameFloat compares bitwise, treating any two NaNs as equal (the NaN
// produced by identical expression shapes is the same pattern anyway,
// but the property we guarantee is "NaN in, NaN out" not a bit pattern).
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return a == b
}

// TestTableExactForPaperFits is the central exactness guarantee: for the
// paper's affine fits the quantized table is bitwise-identical to the
// analytic model at every probed signal, inside and outside the domain.
func TestTableExactForPaperFits(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    Model
	}{{"Paper3G", Paper3G()}, {"LTE", LTE()}} {
		t.Run(tc.name, func(t *testing.T) {
			tab, err := NewTable(tc.m, -110, -50, 4096)
			if err != nil {
				t.Fatal(err)
			}
			if !tab.exact {
				t.Fatal("paper fit not recognized as exact")
			}
			// Dense in-domain grid plus out-of-domain and floor-hitting
			// probes (the 3G fit floors throughput below ≈ −115 dBm).
			for sig := -130.0; sig <= -30.0; sig += 0.003 {
				s := units.DBm(sig)
				wantV := tc.m.Throughput.Throughput(s)
				wantP := tc.m.Power.EnergyPerKB(s)
				gotV, gotP := tab.Lookup(s)
				if !sameFloat(float64(gotV), float64(wantV)) {
					t.Fatalf("throughput at %v: table %v, analytic %v", s, gotV, wantV)
				}
				if !sameFloat(float64(gotP), float64(wantP)) {
					t.Fatalf("energy at %v: table %v, analytic %v", s, gotP, wantP)
				}
			}
		})
	}
}

// TestTableChordApproximation checks the generic (non-exact) path: a
// piecewise-linear curve is reproduced within a tolerance that shrinks
// with bin count, and the table reports itself inexact.
func TestTableChordApproximation(t *testing.T) {
	pw := curve{{-110, 300}, {-90, 900}, {-70, 2500}, {-50, 4200}}
	m := Model{Throughput: pw, Power: FittedPower{Base: -0.167, Scale: 1560, V: pw}}
	tab, err := NewTable(m, -110, -50, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if tab.exact {
		t.Fatal("piecewise model must not be exact")
	}
	for sig := -110.0; sig <= -50.0; sig += 0.01 {
		s := units.DBm(sig)
		wantV := float64(m.Throughput.Throughput(s))
		gotV, gotP := tab.Lookup(s)
		if rel := math.Abs(float64(gotV)-wantV) / wantV; rel > 1e-3 {
			t.Fatalf("throughput at %v: table %v vs %v (rel %g)", s, gotV, wantV, rel)
		}
		wantP := float64(m.Power.EnergyPerKB(s))
		if rel := math.Abs(float64(gotP)-wantP) / wantP; rel > 1e-3 {
			t.Fatalf("energy at %v: table %v vs %v (rel %g)", s, gotP, wantP, rel)
		}
	}
}

func TestTableDegenerateDomain(t *testing.T) {
	m := Paper3G()
	tab, err := NewTable(m, -80, -80, 64)
	if err != nil {
		t.Fatal(err)
	}
	gotV, gotP := tab.Lookup(-80)
	if gotV != m.Throughput.Throughput(-80) || gotP != m.Power.EnergyPerKB(-80) {
		t.Fatalf("degenerate domain lookup (%v, %v) mismatches model", gotV, gotP)
	}
}

func TestTableRejectsBadInputs(t *testing.T) {
	m := Paper3G()
	if _, err := NewTable(m, -110, -50, 0); err == nil {
		t.Error("accepted zero bins")
	}
	if _, err := NewTable(m, -50, -110, 64); err == nil {
		t.Error("accepted inverted domain")
	}
	if _, err := NewTable(m, units.DBm(math.NaN()), -50, 64); err == nil {
		t.Error("accepted NaN domain")
	}
	if _, err := NewTable(Model{}, -110, -50, 64); err == nil {
		t.Error("accepted empty model")
	}
}

func TestTableBinClamps(t *testing.T) {
	tab, err := NewTable(Paper3G(), -110, -50, 128)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[units.DBm]func(int) bool{
		-200:                       func(k int) bool { return k == 0 },
		-110:                       func(k int) bool { return k == 0 },
		-50:                        func(k int) bool { return k == 127 },
		0:                          func(k int) bool { return k == 127 },
		units.DBm(math.NaN()):      func(k int) bool { return k == 0 },
		units.DBm(math.Inf(1)):     func(k int) bool { return k == 127 },
		units.DBm(math.Inf(-1)):    func(k int) bool { return k == 0 },
		units.DBm(-80.00000000001): func(k int) bool { return k >= 0 && k < 128 },
	}
	for sig, ok := range cases {
		if k := tab.bin(sig); !ok(k) {
			t.Errorf("Bin(%v) = %d out of expected range", sig, k)
		}
	}
}

// FuzzTableLookup drives the quantizer with arbitrary signals and
// domains: Bin must stay in range, and on the paper's exact fit Lookup
// must match the analytic model bitwise for every input — including
// infinities, NaN, and signals far outside the compiled domain.
func FuzzTableLookup(f *testing.F) {
	f.Add(-80.0, -110.0, -50.0)
	f.Add(-110.0, -110.0, -50.0)
	f.Add(-49.999999, -110.0, -50.0)
	f.Add(math.Inf(1), -110.0, -50.0)
	f.Add(math.NaN(), -90.0, -60.0)
	f.Add(0.0, -70.0, -70.0)
	m := Paper3G()
	f.Fuzz(func(t *testing.T, sig, lo, hi float64) {
		if math.IsNaN(lo) || math.IsNaN(hi) || hi < lo {
			return // rejected by NewTable; nothing to check
		}
		if math.IsInf(lo, 0) || math.IsInf(hi, 0) {
			return // infinite-width domains have no meaningful quantizer
		}
		tab, err := NewTable(m, units.DBm(lo), units.DBm(hi), 512)
		if err != nil {
			t.Fatalf("NewTable(%v, %v): %v", lo, hi, err)
		}
		s := units.DBm(sig)
		if k := tab.bin(s); k < 0 || k >= tab.bins {
			t.Fatalf("Bin(%v) = %d outside [0, %d)", sig, k, tab.bins)
		}
		gotV, gotP := tab.Lookup(s)
		wantV := m.Throughput.Throughput(s)
		wantP := m.Power.EnergyPerKB(s)
		if !sameFloat(float64(gotV), float64(wantV)) || !sameFloat(float64(gotP), float64(wantP)) {
			t.Fatalf("Lookup(%v) = (%v, %v), analytic (%v, %v)", sig, gotV, gotP, wantV, wantP)
		}
	})
}

// TestTableExactHasNoDomain pins what radio.Link relies on: an
// exact table — even one built over a single point with a single bin —
// returns the analytic model's bits at every signal, in the domain or far
// outside it, infinite or NaN, one at a time and batched (through
// radio.Link, whose batch runs the exact table's closed form), while Bin
// stays inside [0, Bins()).
func TestTableExactHasNoDomain(t *testing.T) {
	src := rng.New(11)
	sigs := []units.DBm{
		units.DBm(math.Inf(1)), units.DBm(math.Inf(-1)), units.DBm(math.NaN()),
		0, -50, -110, -115.0001, -7567.0 / 65.8, 1e300, -1e300, math.SmallestNonzeroFloat64,
	}
	for i := 0; i < 20_000; i++ {
		sigs = append(sigs, units.DBm(src.Uniform(-130, -30)), units.DBm(src.Uniform(-1e6, 1e6)))
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for name, m := range map[string]Model{"Paper3G": Paper3G(), "LTE": LTE()} {
		for _, dom := range []struct {
			lo, hi units.DBm
			bins   int
		}{{0, 0, 1}, {-110, -50, 4096}, {-60, -55, 3}} {
			tab, err := NewTable(m, dom.lo, dom.hi, dom.bins)
			if err != nil {
				t.Fatal(err)
			}
			if !tab.exact || tab.bins != dom.bins {
				t.Fatalf("%s %+v: Exact=%v Bins=%d", name, dom, tab.exact, tab.bins)
			}
			link, err := NewLink(m, 1, 100)
			if err != nil {
				t.Fatal(err)
			}
			vs, ps, lus := make([]units.KBps, len(sigs)), make([]units.MJ, len(sigs)), make([]int32, len(sigs))
			link.Into(sigs, vs, ps, lus)
			for i, sig := range sigs {
				wantV, wantP := m.Throughput.Throughput(sig), m.Power.EnergyPerKB(sig)
				v, p := tab.Lookup(sig)
				if !same(float64(v), float64(wantV)) || !same(float64(p), float64(wantP)) {
					t.Fatalf("%s %+v: Lookup(%v) = (%v, %v), model (%v, %v)", name, dom, sig, v, p, wantV, wantP)
				}
				if !same(float64(vs[i]), float64(wantV)) || !same(float64(ps[i]), float64(wantP)) {
					t.Fatalf("%s %+v: Link.Into[%v] = (%v, %v), model (%v, %v)", name, dom, sig, vs[i], ps[i], wantV, wantP)
				}
				if k := tab.bin(sig); k < 0 || k >= tab.bins {
					t.Fatalf("%s %+v: Bin(%v) = %d outside [0, %d)", name, dom, sig, k, tab.bins)
				}
			}
		}
	}
}
