package cell

import (
	"fmt"
	"math"

	"jointstream/internal/rng"
	"jointstream/internal/sched"
	"jointstream/internal/units"
)

// This file adapts the compiled LinkTable into the sched.Forecast the
// Predictive scheduler consumes. The exact view reads the table's signal
// rows — the same memory the engine's prepare phase aliases into
// sched.Columns — and derives each prediction through the same radio.Link
// the tick derives with, so prediction and physics can never disagree at
// zero error. Every read goes through the table's block lookup, so a
// forecast reaching past what the runs reached fills the blocks it reads,
// exactly as a run would. NoisyForecast layers a seeded multiplicative
// error model on top, turning prediction quality into a sweepable scenario
// axis while keeping every read a pure function of (seed, slot, user).

// at derives user i's slot-n throughput, per-KB price and Eq. (1) limit
// from the table's signal row.
func (t *LinkTable) at(n, i int) (units.KBps, units.MJ, int) {
	return t.link.At(t.SlotSignals(n)[i])
}

// maxLinkUnits returns the largest Eq. (1) per-user unit limit anywhere
// in the table — the cap no honest or corrupted prediction of this
// table may exceed. It reads every slot, so it fills the whole table.
func (t *LinkTable) maxLinkUnits() int {
	t.fillAll()
	m := 0
	for k := range t.blocks {
		for _, sig := range t.blocks[k].Load().sig {
			_, _, lu := t.link.At(sig)
			m = max(m, lu)
		}
	}
	return m
}

// tableForecast is the exact future-channel view of a table: predictions
// are derived from the compiled signal rows themselves.
type tableForecast struct{ t *LinkTable }

// Forecast returns the table's exact sched.Forecast view.
func (t *LinkTable) Forecast() sched.Forecast { return tableForecast{t} }

// HorizonSlots implements sched.Forecast.
func (f tableForecast) HorizonSlots() int { return f.t.slots }

// PredictedEnergyPerKB implements sched.Forecast.
func (f tableForecast) PredictedEnergyPerKB(n, i int) units.MJ {
	_, p, _ := f.t.at(n, i)
	return p
}

// PredictedLinkUnits implements sched.Forecast.
func (f tableForecast) PredictedLinkUnits(n, i int) int {
	_, _, lu := f.t.at(n, i)
	return lu
}

// NoisyForecast corrupts a link table's predictions with seeded
// multiplicative noise of relative level errFrac: each (slot, user)
// coordinate draws an independent factor uniform in [1−errFrac,
// 1+errFrac] for the price and another for the link limit. Draws are
// pure functions of (seed, slot, user) via rng.Hash3 — no generator
// state — so reads are deterministic, order-independent and identical
// across reconstructions with the same seed, which the FuzzForecastNoise
// target pins. Corrupted prices are clamped at zero and corrupted link
// limits to [0, maxLinkUnits], so a prediction can never be negative
// nor exceed the best link the table ever offers.
//
// An error level of 1 or more means predictions carry no information
// about the channel at all; the forecast then reports a zero horizon,
// and a Predictive scheduler consulting it degenerates to its myopic
// baseline (the 100%-error differential test pins this byte-for-byte).
type NoisyForecast struct {
	t       *LinkTable
	seed    uint64
	errFrac float64
	maxLU   int
}

// NewNoisyForecast wraps the table's forecast with the seeded error
// model. errFrac must be non-negative and finite.
func NewNoisyForecast(t *LinkTable, seed uint64, errFrac float64) (*NoisyForecast, error) {
	if t == nil {
		return nil, fmt.Errorf("cell: noisy forecast needs a link table")
	}
	if math.IsNaN(errFrac) || math.IsInf(errFrac, 0) || errFrac < 0 {
		return nil, fmt.Errorf("cell: invalid forecast error level %v", errFrac)
	}
	return &NoisyForecast{t: t, seed: seed, errFrac: errFrac, maxLU: t.maxLinkUnits()}, nil
}

// noiseSalt* separate the price and link-limit draw streams of one
// coordinate; without distinct salts the two corruptions would be
// perfectly correlated.
const (
	noiseSaltPrice = 0x70726963 // "pric"
	noiseSaltLink  = 0x6C696E6B // "link"
)

// factor returns the multiplicative corruption for one coordinate and
// stream: uniform in [1−errFrac, 1+errFrac].
func (f *NoisyForecast) factor(n, i int, salt uint64) float64 {
	u := rng.HashFloat3(f.seed^salt, uint64(n), uint64(i))
	return 1 + f.errFrac*(2*u-1)
}

// HorizonSlots implements sched.Forecast. A fully corrupted forecast
// (errFrac ≥ 1) predicts nothing.
func (f *NoisyForecast) HorizonSlots() int {
	if f.errFrac >= 1 {
		return 0
	}
	return f.t.slots
}

// PredictedEnergyPerKB implements sched.Forecast.
func (f *NoisyForecast) PredictedEnergyPerKB(n, i int) units.MJ {
	_, p0, _ := f.t.at(n, i)
	p := float64(p0) * f.factor(n, i, noiseSaltPrice)
	if p < 0 {
		p = 0
	}
	return units.MJ(p)
}

// PredictedLinkUnits implements sched.Forecast.
func (f *NoisyForecast) PredictedLinkUnits(n, i int) int {
	_, _, lu0 := f.t.at(n, i)
	lu := int(math.Round(float64(lu0) * f.factor(n, i, noiseSaltLink)))
	if lu < 0 {
		return 0
	}
	if lu > f.maxLU {
		return f.maxLU
	}
	return lu
}
