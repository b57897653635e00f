package simtest

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"jointstream/internal/cell"
	"jointstream/internal/oracle"
	"jointstream/internal/radio"
	"jointstream/internal/rng"
	"jointstream/internal/sched"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// slotForecast is the synthetic channel forecast behind the factories'
// Predictive arm: a pure hash of the slot number through the paper's
// radio curves, deliberately independent of the user coordinate. The
// slot-level property suites present schedulers with permuted and
// relabeled user views of the same physical problem, and a per-user
// prediction would not survive the relabeling — a per-slot one makes
// every user's defer/transmit decision a function of its own view
// alone, which is exactly what the permutation-conservation metamorphic
// test requires. The engine-level suites use the real table forecasts
// instead (exact and noise-corrupted).
type slotForecast struct{ seed uint64 }

const slotForecastHorizon = 4096

// slotForecastRadio is built once: constructing the model per read
// would box its interface fields and show up as test-harness noise in
// the steady-state allocation measurements.
var slotForecastRadio = radio.Paper3G()

func (f slotForecast) HorizonSlots() int { return slotForecastHorizon }

// predictedSig draws the slot's predicted channel from the same signal
// range RandomSlot samples, so predicted prices are commensurate with
// the slot views' current prices and both decide() branches fire.
func (f slotForecast) predictedSig(n int) units.DBm {
	return units.DBm(-110 + 60*rng.HashFloat3(f.seed, uint64(n), 0))
}

func (f slotForecast) PredictedEnergyPerKB(n, i int) units.MJ {
	return slotForecastRadio.Power.EnergyPerKB(f.predictedSig(n))
}

func (f slotForecast) PredictedLinkUnits(n, i int) int {
	// Occasionally predict a dead slot so the nonzero-link filter in the
	// lookahead scan is exercised.
	if rng.Hash3(f.seed, uint64(n), 1)%8 == 0 {
		return 0
	}
	return 1 + int(rng.Hash3(f.seed, uint64(n), 2)%40)
}

// FuzzForecastNoise pins the NoisyForecast contract on a compiled link
// table: every read is a pure function of (seed, slot, user) — two
// independently constructed forecasts with the same seed agree at every
// coordinate, in any read order — corrupted prices are never negative,
// corrupted link limits never leave [0, the table's largest], and a fully
// corrupted forecast (errFrac ≥ 1) reports a zero horizon, carrying no
// information at all.
//
// Run the smoke mode locally (CI runs it for 30 s) with:
//
//	go test -fuzz=FuzzForecastNoise -fuzztime=30s ./internal/simtest
func FuzzForecastNoise(f *testing.F) {
	cfg := engineCfg()
	sessions := traceSessions(f, "sine+wgn", 4)
	lt, err := cell.CompileLink(cfg, sessions)
	if err != nil {
		f.Fatal(err)
	}
	exact, maxLU := lt.Forecast(), 0
	for n := 0; n < lt.Slots(); n++ {
		for i := 0; i < lt.Users(); i++ {
			maxLU = max(maxLU, exact.PredictedLinkUnits(n, i))
		}
	}

	f.Add(uint64(1), uint8(0), uint16(0))
	f.Add(uint64(2), uint8(25), uint16(77))
	f.Add(uint64(3), uint8(99), uint16(500))
	f.Add(uint64(4), uint8(100), uint16(9))
	f.Add(uint64(5), uint8(255), uint16(1000))

	f.Fuzz(func(t *testing.T, seed uint64, errPct uint8, coord uint16) {
		errFrac := float64(errPct) / 100 // spans [0, 2.55]: both regimes
		a, err := cell.NewNoisyForecast(lt, seed, errFrac)
		if err != nil {
			t.Fatal(err)
		}
		b, err := cell.NewNoisyForecast(lt, seed, errFrac)
		if err != nil {
			t.Fatal(err)
		}

		if errFrac >= 1 {
			if h := a.HorizonSlots(); h != 0 {
				t.Fatalf("errFrac %v: horizon %d, want 0 (no information)", errFrac, h)
			}
		} else if h := a.HorizonSlots(); h != lt.Slots() {
			t.Fatalf("errFrac %v: horizon %d, want table's %d", errFrac, h, lt.Slots())
		}

		// Walk a deterministic window of coordinates starting at coord,
		// reading b in reverse order: pure reads cannot care about order.
		users, slots := lt.Users(), lt.Slots()
		type read struct {
			n, i int
			p    units.MJ
			lu   int
		}
		var reads []read
		for k := 0; k < 16; k++ {
			idx := (int(coord) + 37*k) % (users * slots)
			n, i := idx/users, idx%users
			reads = append(reads, read{n: n, i: i, p: a.PredictedEnergyPerKB(n, i), lu: a.PredictedLinkUnits(n, i)})
		}
		for k := len(reads) - 1; k >= 0; k-- {
			r := reads[k]
			if p := b.PredictedEnergyPerKB(r.n, r.i); p != r.p {
				t.Fatalf("(%d,%d): price %v != %v from an identically seeded forecast", r.n, r.i, p, r.p)
			}
			if lu := b.PredictedLinkUnits(r.n, r.i); lu != r.lu {
				t.Fatalf("(%d,%d): link units %d != %d from an identically seeded forecast", r.n, r.i, lu, r.lu)
			}
			if r.p < 0 {
				t.Fatalf("(%d,%d): negative predicted price %v", r.n, r.i, r.p)
			}
			if r.lu < 0 || r.lu > maxLU {
				t.Fatalf("(%d,%d): predicted link units %d outside [0, %d]", r.n, r.i, r.lu, maxLU)
			}
		}
	})
}

// TestNoisyForecastZeroErrorIsExact pins the noise model's identity
// mode: at errFrac 0 the corruption factor is exactly 1, so every read
// matches the table bitwise.
func TestNoisyForecastZeroErrorIsExact(t *testing.T) {
	cfg := engineCfg()
	sessions := traceSessions(t, "randomwalk", 4)
	lt, err := cell.CompileLink(cfg, sessions)
	if err != nil {
		t.Fatal(err)
	}
	nf, err := cell.NewNoisyForecast(lt, 99, 0)
	if err != nil {
		t.Fatal(err)
	}
	exact := lt.Forecast()
	for n := 0; n < lt.Slots(); n += 7 {
		for i := 0; i < lt.Users(); i++ {
			if got, want := nf.PredictedEnergyPerKB(n, i), exact.PredictedEnergyPerKB(n, i); got != want {
				t.Fatalf("(%d,%d): zero-error price %v != table %v", n, i, got, want)
			}
			if got, want := nf.PredictedLinkUnits(n, i), exact.PredictedLinkUnits(n, i); got != want {
				t.Fatalf("(%d,%d): zero-error link units %d != table %d", n, i, got, want)
			}
		}
	}
}

// TestNoisyForecastValidation pins the constructor's argument checks.
func TestNoisyForecastValidation(t *testing.T) {
	cfg := engineCfg()
	lt, err := cell.CompileLink(cfg, traceSessions(t, "sine+wgn", 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cell.NewNoisyForecast(nil, 1, 0.1); err == nil {
		t.Error("nil table accepted")
	}
	for _, bad := range []float64{-0.1, math.Inf(1), math.NaN()} {
		if _, err := cell.NewNoisyForecast(lt, 1, bad); err == nil {
			t.Errorf("error level %v accepted", bad)
		}
	}
	if _, err := sched.NewPredictive(sched.PredictiveConfig{Lookahead: -1}); err == nil {
		t.Error("negative lookahead accepted")
	}
}

// TestLinkReadersMatchStoredColumns pins the table's readers outside the
// engine — the exact forecast (and its largest link limit), NoisyForecast
// and the oracle over the table and over the traces — to what they
// returned when the table stored v, P and ⌊τ·v/δ⌋ beside the signal: a
// hash of every prediction of a seeded 6-user × 600-slot table (three
// table blocks, VBR rates) and the oracle's four bounds, by float bits,
// recorded before the table shrank to signals and rates and re-recorded,
// with nothing else changed, when the workload's channel became the
// stateless sine.
func TestLinkReadersMatchStoredColumns(t *testing.T) {
	cfg := cell.PaperConfig()
	cfg.MaxSlots = 600
	wc := workload.PaperDefaults(6)
	wc.RateJitterFrac = 0.1
	wl, err := workload.Generate(wc, rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	lt, err := cell.CompileLink(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := cell.NewNoisyForecast(lt, 9, 0.35)
	if err != nil {
		t.Fatal(err)
	}
	exact := lt.Forecast()
	h := fnv.New64a()
	put := func(x uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	maxLU := 0
	for n := 0; n < cfg.MaxSlots; n++ {
		for i := range wl {
			maxLU = max(maxLU, exact.PredictedLinkUnits(n, i))
			put(math.Float64bits(float64(exact.PredictedEnergyPerKB(n, i))))
			put(uint64(exact.PredictedLinkUnits(n, i)))
			put(math.Float64bits(float64(noisy.PredictedEnergyPerKB(n, i))))
			put(uint64(noisy.PredictedLinkUnits(n, i)))
		}
	}
	if got, want := h.Sum64(), uint64(0x9411430d41c1e4e5); got != want {
		t.Errorf("forecast hash %#x, want %#x", got, want)
	}
	if maxLU != 42 {
		t.Errorf("largest link limit %d, want 42", maxLU)
	}
	ocfg := oracle.Config{Tau: cfg.Tau, Unit: cfg.Unit, Capacity: cfg.Capacity / 20, Horizon: cfg.MaxSlots,
		Radio: cfg.Radio, RRC: cfg.RRC, AccountTail: true}
	want := [4]uint64{0x4119bba5e4b155cb, 0x4130ba9cd69faa62, 0x4167a2b9ab7f9b82, 0x412d87d5dc28f52c}
	for _, link := range []oracle.LinkView{nil, lt} {
		ocfg.Link = link
		b, err := oracle.Compute(ocfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		got := [4]uint64{math.Float64bits(float64(b.LowerMJ)), math.Float64bits(float64(b.UpperMJ)),
			math.Float64bits(float64(b.WorstMJ)), math.Float64bits(float64(b.TailMJ))}
		if got != want || b.Feasible {
			t.Errorf("oracle (table %v): bounds %#x feasible %v, want %#x false", link != nil, got, b.Feasible, want)
		}
	}
}
