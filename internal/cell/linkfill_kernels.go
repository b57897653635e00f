package cell

import "jointstream/internal/units"

// Row kernel of the link-window fill (linkfill.go): one slot's entries for
// one run of consecutive destination rows, every column written through a
// length-equalized reslice so the stores carry no per-element bounds
// checks. The bce-check CI job builds this file with -d=ssa/check_bce like
// kernels.go; keep the reslice structure when editing.

// emitRow writes slot k of the staged signals into one row of each
// physics column. The per-element expressions are prepareColsUser's:
// same reads, same float operations.
func (f *linkFiller) emitRow(stage [][fillSlots]units.DBm, k int, sig []units.DBm, link []units.KBps, epkb []units.MJ, lu []int32) {
	// Pin every column to len(stage) so the compiler can prove x[u] in
	// range for u := range stage; the mask does the same for the staged
	// slot (the driver never passes k ≥ fillSlots).
	sig = sig[:len(stage)]
	link = link[:len(stage)]
	epkb = epkb[:len(stage)]
	lu = lu[:len(stage)]
	k &= fillSlots - 1
	for u := range stage {
		sig[u] = stage[u][k]
	}
	if f.tab != nil {
		f.tab.LookupInto(sig, link, epkb)
	} else {
		thr, pow := f.radio.Throughput, f.radio.Power
		for u, s := range sig {
			link[u] = thr.Throughput(s)
			epkb[u] = pow.EnergyPerKB(s)
		}
	}
	tau, unit := f.tau, f.unit
	for u, v := range link {
		lu[u] = int32(floorUnits(float64(v)*tau, unit))
	}
}
