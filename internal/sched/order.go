package sched

import (
	"slices"

	"jointstream/internal/units"
)

// rtmaOrder maintains RTMA's smallest-rate-first candidate order across
// slots. A full sort per slot is O(n log n) of pointer-chasing comparisons
// even though, between adjacent slots, most users keep their rate and
// admission status — only their per-slot need (which does not participate
// in the key) moves. rtmaOrder therefore keeps the previous slot's sorted
// sequence and repairs it:
//
//  1. one in-place sweep drops entries whose user left the candidate set
//     or changed rate (the sort key), patching the per-slot need of the
//     survivors;
//  2. candidates with no surviving entry are collected, sorted among
//     themselves (a small slice), and back-merged into the kept sequence
//     in a single linear pass.
//
// Because the (rate, index) key is a strict total order, the sorted
// candidate sequence is unique: the repaired order is *identical* to a
// full sort, not merely equivalent — which is what keeps Run byte-exact
// against RunReference. When the churn (drops + insertions) exceeds a
// threshold the repair would approach full-sort cost with worse constants,
// so update falls back to sorting the fresh candidate list from scratch.
// The default threshold is max(8, candidates/8); limit overrides it.
type rtmaOrder struct {
	// keys is the persistent candidate sequence sorted by (rate, idx).
	keys []rtmaKey
	// ins collects candidates that need insertion this slot.
	ins []rtmaKey

	// Per-user-index lookup tables, generation-stamped so no per-slot
	// clearing is needed. candGen[i] == gen marks i a candidate this slot
	// with key candRate[i] and payload candNeed[i]; keptGen[i] == gen
	// marks that the repair sweep kept an entry for i.
	gen      uint32
	candGen  []uint32
	keptGen  []uint32
	candRate []units.KBps
	candNeed []int32

	// limit is the churn threshold: < 0 selects the default
	// max(8, candidates/8); 0 forces a full sort on any churn.
	limit int
}

// rtmaKeyLess is the strict (rate, idx) order shared by the full sort and
// the incremental merge.
func rtmaKeyLess(a, b rtmaKey) bool {
	if a.rate != b.rate {
		return a.rate < b.rate
	}
	return a.idx < b.idx
}

// sortRTMAKeys sorts keys by (rate, idx). slices.SortFunc keeps the hot
// path allocation-free (no sort.Interface boxing).
func sortRTMAKeys(keys []rtmaKey) {
	slices.SortFunc(keys, func(a, b rtmaKey) int {
		if a.rate < b.rate {
			return -1
		}
		if a.rate > b.rate {
			return 1
		}
		return int(a.idx - b.idx)
	})
}

// update absorbs this slot's candidate list (ascending user index, needs
// already fresh) into the persistent order and returns the sequence sorted
// by (rate, idx). The returned slice is owned by rtmaOrder and must not be
// reordered by the caller — water-filling runs on a copy.
func (o *rtmaOrder) update(cand []rtmaKey) []rtmaKey {
	o.gen++
	if o.gen == 0 { // generation wrap: stale stamps could collide, reset
		clear(o.candGen)
		clear(o.keptGen)
		o.gen = 1
	}
	if len(cand) == 0 {
		o.keys = o.keys[:0]
		return o.keys
	}
	// cand is ascending by index, so its last entry bounds the tables.
	if n := int(cand[len(cand)-1].idx) + 1; len(o.candGen) < n {
		o.grow(n)
	}
	for _, k := range cand {
		o.candGen[k.idx] = o.gen
		o.candRate[k.idx] = k.rate
		o.candNeed[k.idx] = k.need
	}
	limit := o.limit
	if limit < 0 {
		limit = len(cand) / 8
		if limit < 8 {
			limit = 8
		}
	}

	// Repair sweep: compact the kept entries in place (dropping never
	// reorders), refresh their needs, and stamp them so the insertion scan
	// below can tell which candidates are already placed.
	w := 0
	for _, k := range o.keys {
		if o.candGen[k.idx] != o.gen || o.candRate[k.idx] != k.rate {
			continue // user left the candidate set or re-keyed: churn
		}
		k.need = o.candNeed[k.idx]
		o.keys[w] = k
		w++
		o.keptGen[k.idx] = o.gen
	}
	churn := len(o.keys) - w
	o.keys = o.keys[:w]

	o.ins = o.ins[:0]
	for _, k := range cand {
		if o.keptGen[k.idx] != o.gen {
			o.ins = append(o.ins, k)
		}
	}
	churn += len(o.ins)

	if churn > limit {
		// Past the threshold the repair no longer beats a fresh sort.
		o.keys = append(o.keys[:0], cand...)
		sortRTMAKeys(o.keys)
		return o.keys
	}
	if len(o.ins) == 0 {
		return o.keys
	}
	sortRTMAKeys(o.ins)
	// Back-merge the sorted insertions into the kept sequence: extend,
	// then fill from the tail so every element is read before its slot is
	// overwritten. Kept reads (index a) always trail the write cursor t.
	o.keys = append(o.keys, o.ins...)
	a, b := w-1, len(o.ins)-1
	for t := len(o.keys) - 1; b >= 0; t-- {
		if a >= 0 && rtmaKeyLess(o.ins[b], o.keys[a]) {
			o.keys[t] = o.keys[a]
			a--
		} else {
			o.keys[t] = o.ins[b]
			b--
		}
	}
	return o.keys
}

// grow extends the per-index lookup tables to cover n users.
func (o *rtmaOrder) grow(n int) {
	candGen := make([]uint32, n)
	copy(candGen, o.candGen)
	o.candGen = candGen
	keptGen := make([]uint32, n)
	copy(keptGen, o.keptGen)
	o.keptGen = keptGen
	candRate := make([]units.KBps, n)
	copy(candRate, o.candRate)
	o.candRate = candRate
	candNeed := make([]int32, n)
	copy(candNeed, o.candNeed)
	o.candNeed = candNeed
}
