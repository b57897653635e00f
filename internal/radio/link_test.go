package radio

import (
	"fmt"
	"math"
	"testing"

	"jointstream/internal/rng"
	"jointstream/internal/units"
)

// TestLinkMatchesModel: At and Into derive, for every probed signal —
// in range, out of it, on the throughput floor, ±Inf and NaN — exactly
// what the model's interfaces compute and the Eq. (1) limit ⌊τ·v/δ⌋ of
// that throughput (whose int32 narrowing the batch stores), through the
// exact table (the paper's fits; NaN too) and through the interfaces (a
// piecewise curve, which cannot take NaN).
func TestLinkMatchesModel(t *testing.T) {
	pw, err := NewPiecewiseLinear([]Point{{Sig: -110, Rate: 300}, {Sig: -70, Rate: 2500}, {Sig: -50, Rate: 4200}})
	if err != nil {
		t.Fatal(err)
	}
	sigs := []units.DBm{units.DBm(math.Inf(-1)), -200, -130, -115.3, -50, 0, units.DBm(math.Inf(1))}
	src := rng.New(7)
	for k := 0; k < 5000; k++ {
		sigs = append(sigs, units.DBm(-130+100*src.Float64()))
	}
	for _, tc := range []struct {
		name  string
		m     Model
		exact bool
	}{{"paper", Paper3G(), true}, {"lte", LTE(), true}, {"piecewise", Model{Throughput: pw, Power: FittedPower{Base: -0.167, Scale: 1560, V: pw}}, false}} {
		sigs := sigs
		if tc.exact {
			sigs = append(sigs[:len(sigs):len(sigs)], units.DBm(math.NaN()))
		}
		for _, grid := range [][2]float64{{1, 100}, {0.5, 37}} {
			l, err := NewLink(tc.m, units.Seconds(grid[0]), units.KB(grid[1]))
			if err != nil {
				t.Fatal(err)
			}
			if l.Exact() != tc.exact {
				t.Fatalf("%s: Exact() = %v", tc.name, l.Exact())
			}
			v, p, lu := make([]units.KBps, len(sigs)), make([]units.MJ, len(sigs)), make([]int32, len(sigs))
			l.Into(sigs, v, p, lu)
			for i, s := range sigs {
				wantV, wantP := tc.m.Throughput.Throughput(s), tc.m.Power.EnergyPerKB(s)
				wantLU := 0
				if amount := float64(wantV) * grid[0]; !(amount <= 0) {
					wantLU = int(amount / grid[1])
				}
				gv, gp, glu := l.At(s)
				if !sameFloat(float64(gv), float64(wantV)) || !sameFloat(float64(gp), float64(wantP)) || glu != wantLU ||
					!sameFloat(float64(v[i]), float64(wantV)) || !sameFloat(float64(p[i]), float64(wantP)) || lu[i] != int32(wantLU) {
					t.Fatalf("%s %v at %v: At (%v %v %d), Into (%v %v %d), model (%v %v %d)",
						tc.name, grid, s, gv, gp, glu, v[i], p[i], lu[i], wantV, wantP, wantLU)
				}
			}
		}
	}
}

// BenchmarkLinkInto times the tick's per-slot derivation: v, P and
// ⌊τ·v/δ⌋ of one slot's row of 100 000 signals, the cell_dense shape,
// through the exact table and through the interfaces. ns/row is one
// user-slot.
func BenchmarkLinkInto(b *testing.B) {
	const n = 100_000
	pw, err := NewPiecewiseLinear([]Point{{Sig: -110, Rate: 300}, {Sig: -50, Rate: 4200}})
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(3)
	sig := make([]units.DBm, n)
	for i := range sig {
		sig[i] = units.DBm(-110 + 60*src.Float64())
	}
	v, p, lu := make([]units.KBps, n), make([]units.MJ, n), make([]int32, n)
	for _, tc := range []struct {
		name string
		m    Model
	}{{"exact", Paper3G()}, {"interfaces", Model{Throughput: pw, Power: FittedPower{Base: -0.167, Scale: 1560, V: pw}}}} {
		b.Run(fmt.Sprintf("n100000_%s", tc.name), func(b *testing.B) {
			l, err := NewLink(tc.m, 1, 100)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				l.Into(sig, v, p, lu)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
		})
	}
}
