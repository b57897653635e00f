package sched

import "jointstream/internal/units"

// Forecast is the future-channel view a predictive scheduler consults:
// for any (slot, user) coordinate inside its horizon it predicts the
// per-KB energy price P(sig_i(n)) and the Eq. (1) link limit ⌊τ·v/δ⌋.
// The production implementation (cell.LinkTable.Forecast) replays the
// compiled link table's slot-major windows exactly; cell.NoisyForecast
// wraps it with a seeded error model so prediction quality becomes a
// scenario axis.
//
// Coordinates are session indices — the positions of the slot's columns
// — and n is the absolute slot number: the same grid the engine drives
// Allocate with. Implementations must be pure reads: the
// scheduler may query any in-horizon coordinate any number of times and
// must always see the same value (determinism of the whole run depends
// on it).
type Forecast interface {
	// HorizonSlots is the exclusive upper bound on predictable slot
	// numbers: predictions exist for n in [0, HorizonSlots()). A
	// scheduler's lookahead window truncates here — the table edge —
	// rather than extrapolating.
	HorizonSlots() int
	// PredictedEnergyPerKB returns the predicted per-KB reception cost
	// of user i at slot n. n must be in [0, HorizonSlots()).
	PredictedEnergyPerKB(n, i int) units.MJ
	// PredictedLinkUnits returns the predicted Eq. (1) per-user unit
	// limit of user i at slot n. n must be in [0, HorizonSlots()).
	PredictedLinkUnits(n, i int) int
}

// SlotWindower is the optional zero-copy fast path of a Forecast: a
// forecast whose predictions are materialized slot-major columns (the
// exact link-table view) exposes whole per-slot windows so a scheduler
// can re-alias the column slices instead of paying one interface call
// per (slot, user) read. The returned slices are shared immutable state
// and must never be written through — the same aliasing contract as the
// engine's sched.Columns (DESIGN.md §7). Error-model wrappers that
// corrupt reads on the fly deliberately do not implement it.
type SlotWindower interface {
	// PredictedWindow returns slot n's per-user price and link-unit
	// columns. n must be in [0, HorizonSlots()).
	PredictedWindow(n int) (epkb []units.MJ, linkUnits []int32)
}
