package cell

import "jointstream/internal/units"

// Row kernel of the link-window fill (linkfill.go): one slot's signals for
// one run of consecutive destination rows, written through a
// length-equalized reslice so the stores carry no per-element bounds
// checks. The bce-check CI job builds this file with -d=ssa/check_bce like
// kernels.go; keep the reslice structure when editing.

// emitRow writes slot k of the staged signals into one row of the signal
// column.
func emitRow(stage [][fillSlots]units.DBm, k int, sig []units.DBm) {
	// Pin the column to len(stage) so the compiler can prove sig[u] in
	// range for u := range stage; the mask does the same for the staged
	// slot (the driver never passes k ≥ fillSlots).
	sig = sig[:len(stage)]
	k &= fillSlots - 1
	for u := range stage {
		sig[u] = stage[u][k]
	}
}
