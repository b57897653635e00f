package sched

import (
	"math"
	"slices"
	"testing"

	"jointstream/internal/rng"
)

// contended reports whether runDP's band lemma leaves these lines one
// total, capacity: Σ need ≥ capacity.
func contended(lines []userLine, capacity int) bool {
	guard := clipGuard(lines, capacity)
	need := 0
	for k := range lines {
		need += lines[k].floor(guard)
	}
	return need >= capacity
}

// boundedLines returns a copy of lines with want, least and most set as
// runDP sets them.
func boundedLines(lines []userLine, capacity int) []userLine {
	bounded := slices.Clone(lines)
	(&EMA{}).bound(bounded, capacity)
	return bounded
}

// classified reports whether these lines are a contended slot the
// threshold lemma narrows: some line's bounds are tighter than [0, want].
func classified(lines []userLine, capacity int) bool {
	if !contended(lines, capacity) {
		return false
	}
	for _, l := range boundedLines(lines, capacity) {
		if l.least > 0 || l.most < l.want {
			return true
		}
	}
	return false
}

// checkThresholdLemma fails unless alloc — the unclipped deque oracle's
// answer for these lines, alloc[k] being line k's grant — lies inside the
// grant bounds runDP gives them: least ≤ alloc[k] ≤ most for every line, as
// the threshold lemma (a contended slot) and the slack lemma (Σ want ≤
// capacity) set them. A failure here is a counter-example to those lemmas,
// whatever the production DP went on to return.
func checkThresholdLemma(t *testing.T, lines []userLine, capacity int, alloc []int) {
	t.Helper()
	for k, l := range boundedLines(lines, capacity) {
		if alloc[k] < l.least || alloc[k] > l.most {
			t.Fatalf("lemma: capacity %d, lines %+v: oracle %v grants line %d %d units, outside [%d, %d]",
				capacity, lines, alloc, k, alloc[k], l.least, l.most)
		}
	}
}

// TestEMAThresholdLemma checks runDP's grant bounds where they are claimed
// — on the unclipped oracle's allocation — for every kernelCases entry
// (whose threshold cases must classify), every slot of evolvePaperCell at
// three V (every contended one must classify), and 10⁴ seeded contended
// line sets with tied slopes, slopes an ULP or a fraction of the guard
// apart, first units keyed like extra units, and more users than capacity.
func TestEMAThresholdLemma(t *testing.T) {
	narrowed := 0
	for _, c := range kernelCases() {
		checkThresholdLemma(t, c.lines, c.capacity, solveLines((*EMA).runDPDeque, c.lines, c.capacity))
		if classified(c.lines, c.capacity) {
			narrowed++
		}
	}
	if narrowed < 40 {
		t.Errorf("%d kernelCases classify: the threshold is not what they exercise", narrowed)
	}

	for _, v := range []float64{0.005, 0.3, 16} {
		slots := 0
		evolvePaperCell(t, v, 40, 205, 300, func(e *EMA, slot *Slot, step int) []int {
			alloc := make([]int, slot.NumUsers())
			e.AllocateDeque(slot, alloc)
			grants := make([]int, len(e.lines))
			for k, i := range e.dpUser {
				grants[k] = alloc[i]
			}
			checkThresholdLemma(t, e.lines, slot.CapacityUnits, grants)
			if contended(e.lines, slot.CapacityUnits) {
				slots++
				if !classified(e.lines, slot.CapacityUnits) {
					t.Errorf("V=%v step %d: a contended slot is left unclassified", v, step)
				}
			}
			return alloc
		})
		if slots < 100 {
			t.Errorf("V=%v: %d of 300 slots contended: the threshold is not what this run exercises", v, slots)
		}
	}

	src := rng.New(3838)
	for trial, done := 0, 0; done < 10_000; trial++ {
		lines, capacity := randomContendedLines(src)
		if lines == nil {
			continue
		}
		done++
		checkLinesAgainstDeque(t, lines, capacity)
	}
}

// randomContendedLines draws a contended slot of cost lines, or nil: slopes
// from a small pool holding a value, the same value again, its ULP
// neighbour and a point inside the guard next to it, so that extra units
// tie and near-tie at the threshold; first units that dodge a tail by a
// wide margin, by nothing (skip = base, the never-served user: the first
// unit is keyed like the extras), or against another line's extras, and
// now and then a window user that is not convex (skip below base); and a
// capacity at or below Σ need, often below the users' count.
func randomContendedLines(src *rng.Source) ([]userLine, int) {
	capacity := 1 + src.Intn(40)
	p := -src.Uniform(0, 2)
	slopes := []float64{p, p, math.Nextafter(p, 0), p + 1e-14, -src.Uniform(0, 2), src.Uniform(0, 1)}
	var lines []userLine
	for need := 0; need < capacity && len(lines) < 16; need = 0 {
		l := userLine{base: src.Uniform(0, 2), perUnit: slopes[src.Intn(len(slopes))], maxPhi: 1 + src.Intn(min(capacity, 9))}
		switch {
		case src.Bool(0.02):
			l.skip = l.base - src.Uniform(0, 0.5) // not convex: the slot falls back
		case src.Bool(0.25):
			l.skip = l.base
		case src.Bool(0.33):
			l.skip = l.base + l.perUnit - min(slopes[src.Intn(len(slopes))], l.perUnit)
		default:
			l.skip = l.base + src.Uniform(1, 5)
		}
		lines = append(lines, l)
		guard := clipGuard(lines, capacity)
		for k := range lines {
			need += lines[k].floor(guard)
		}
	}
	if !contended(lines, capacity) {
		return nil, 0
	}
	return lines, capacity
}

// wantNeedBandStates counts the states runDP's passes filled for these
// lines before the threshold and slack lemmas: row k's band from want and
// need alone, [max(0, T_lo − Σ_{i ≥ k} want_i), min(Σ_{i < k} want_i,
// capacity)], summed over the rows the passes fill.
func wantNeedBandStates(lines []userLine, capacity int) (states int) {
	guard := clipGuard(lines, capacity)
	tLo, wantsLeft := 0, 0
	for k := range lines {
		tLo += lines[k].floor(guard)
		wantsLeft += lines[k].clip(guard)
	}
	tLo = min(tLo, capacity)
	reach := 0
	for k := range lines {
		want := lines[k].clip(guard)
		wantsLeft -= want
		reach = min(reach+want, capacity)
		states += reach - max(0, tLo-wantsLeft) + 1
	}
	return states
}

// TestEMAThresholdStates counts what the threshold lemma saves where it
// applies: over the contended slots of evolvePaperCell at three V, the band
// states the production DP fills (the EMA's own counter) are at most a
// fifth of those the want/need band alone would fill.
func TestEMAThresholdStates(t *testing.T) {
	for _, v := range []float64{0.005, 0.3, 16} {
		filled, band := 0, 0
		evolvePaperCell(t, v, 40, 205, 300, func(e *EMA, slot *Slot, step int) []int {
			before := e.DPStates()
			alloc := make([]int, slot.NumUsers())
			e.Allocate(slot, alloc)
			if contended(e.lines, slot.CapacityUnits) {
				filled += e.DPStates() - before
				band += wantNeedBandStates(e.lines, slot.CapacityUnits)
			}
			return alloc
		})
		t.Logf("V=%v: contended slots fill %d band states, the want/need band %d", v, filled, band)
		if band == 0 || 5*filled > band {
			t.Errorf("V=%v: contended slots fill %d band states against the want/need band's %d: less than an 80 %% cut", v, filled, band)
		}
	}
}

// TestEMAUnitKey pins the quickselect against a sort: for random runs with
// repeated keys, unitKey(runs, r) is the key of the r-th unit in ascending
// key order, for every rank r.
func TestEMAUnitKey(t *testing.T) {
	src := rng.New(77)
	for trial := 0; trial < 2_000; trial++ {
		runs := make([]unitRun, 1+src.Intn(30))
		var keys []float64
		for i := range runs {
			runs[i] = unitRun{key: float64(src.Intn(8)) - 4, units: 1 + src.Intn(4)}
			for u := 0; u < runs[i].units; u++ {
				keys = append(keys, runs[i].key)
			}
		}
		slices.Sort(keys)
		for r := 1; r <= len(keys); r++ {
			if got := unitKey(slices.Clone(runs), r); got != keys[r-1] {
				t.Fatalf("runs %+v: unitKey(%d) = %v, want %v", runs, r, got, keys[r-1])
			}
		}
	}
}

// recordContendedCell steps evolvePaperCell at V = 16 (N = 40, capacity
// 205), where Σ need reaches capacity in every slot, and returns its slots
// and the scheduler as it stood before the first: replaying the slots from
// a clone of it repeats the run decision for decision.
func recordContendedCell(tb testing.TB) (start *EMA, slots []*Slot) {
	const n, capacity, steps = 40, 205, 300
	evolvePaperCell(tb, 16, n, capacity, steps, func(e *EMA, slot *Slot, step int) []int {
		if step == 0 {
			start = cloneEMA(e)
		}
		slots = append(slots, slot)
		alloc := make([]int, n)
		e.Allocate(slot, alloc)
		if !classified(e.lines, capacity) {
			tb.Fatalf("step %d: not a contended, classified slot", step)
		}
		return alloc
	})
	return start, slots
}

// BenchmarkEMAContendedSlots times the production DP where the threshold
// lemma carries it: 300 recorded slots of a contended 40-user, capacity-205
// cell (recordContendedCell) per op, replayed from the same queues;
// ns/slot is one slot's Allocate.
func BenchmarkEMAContendedSlots(b *testing.B) {
	start, slots := recordContendedCell(b)
	e := cloneEMA(start)
	alloc := make([]int, len(start.queues))
	for _, slot := range slots { // grow the tables outside the timer
		e.Allocate(slot, alloc)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(e.queues, start.queues)
		for _, slot := range slots {
			clear(alloc)
			e.Allocate(slot, alloc)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(slots)), "ns/slot")
}
