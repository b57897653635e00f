// Package simtest is the reusable correctness harness for the scheduling
// and simulation layers: invariant checkers, random slot/workload
// generators, and determinism helpers shared by the unit tests, the
// differential tests gating the EMA DP fast path, and the fuzz targets.
//
// The checkers deliberately re-derive every invariant from first
// principles instead of delegating to the code under test (e.g. they do
// not call sched.Slot.Validate), so a bug cannot hide by breaking the
// production check and the production path in the same way. The
// invariants covered:
//
//   - Feasibility (Eq. 1–2): Σϕ ≤ capacity, ϕ_i ≤ MaxUnits, ϕ_i ≥ 0, and
//     inactive users receive nothing (CheckAllocation).
//   - Virtual-queue recursion (Eq. 16): EMA's PC_i advances by τ − ϕδ/p
//     for active users and stays frozen for inactive ones (CheckEq16).
//   - Run sanity: energies and rebuffering non-negative, series lengths
//     consistent with the slot count (CheckResult).
//   - Determinism: identical seeds produce byte-identical results across
//     worker counts in the parallel paths (CheckParallelDeterminism).
package simtest

import (
	"context"
	"fmt"
	"math"
	"reflect"

	"jointstream/internal/cell"
	"jointstream/internal/pool"
	"jointstream/internal/sched"
	"jointstream/internal/units"
)

// CheckAllocation verifies the per-slot feasibility invariants of
// Eq. (1)/(2) plus the inactivity rule, independently of
// sched.Slot.Validate.
func CheckAllocation(slot *sched.Slot, alloc []int) error {
	if len(alloc) != slot.NumUsers() {
		return fmt.Errorf("simtest: allocation length %d != %d users", len(alloc), slot.NumUsers())
	}
	total := 0
	for i, a := range alloc {
		switch {
		case a < 0:
			return fmt.Errorf("simtest: user %d allocated %d < 0", i, a)
		case !slot.ActiveAt(i) && a != 0:
			return fmt.Errorf("simtest: inactive user %d allocated %d units", i, a)
		case a > slot.MaxUnitsAt(i):
			return fmt.Errorf("simtest: user %d allocated %d > link bound %d", i, a, slot.MaxUnitsAt(i))
		}
		total += a
	}
	if total > slot.CapacityUnits {
		return fmt.Errorf("simtest: total allocation %d > capacity %d", total, slot.CapacityUnits)
	}
	return nil
}

// QueueSnapshot captures EMA's virtual queues for the users of a slot,
// for a later CheckEq16 against the post-Allocate state.
func QueueSnapshot(e *sched.EMA, slot *sched.Slot) []units.Seconds {
	qs := make([]units.Seconds, slot.NumUsers())
	for i := range qs {
		qs[i] = e.Queue(i)
	}
	return qs
}

// CheckEq16 verifies the virtual-queue recursion of Eq. (16) for one
// allocated slot: for every active user i,
//
//	PC_i' = PC_i + τ − ϕ_i·δ/p_i
//
// and inactive users' queues stay frozen. before must be a QueueSnapshot
// taken immediately before the Allocate that produced alloc.
func CheckEq16(e *sched.EMA, before []units.Seconds, slot *sched.Slot, alloc []int) error {
	if len(before) != slot.NumUsers() {
		return fmt.Errorf("simtest: snapshot length %d != %d users", len(before), slot.NumUsers())
	}
	for i := 0; i < slot.NumUsers(); i++ {
		active := slot.ActiveAt(i)
		want := float64(before[i])
		if active {
			t := 0.0
			if alloc[i] > 0 {
				t = float64(alloc[i]) * float64(slot.Unit) / float64(slot.RateAt(i))
			}
			want += float64(slot.Tau) - t
		}
		got := float64(e.Queue(i))
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			return fmt.Errorf("simtest: user %d queue %v after slot, want %v (Eq. 16, alloc=%d, active=%v)",
				i, got, want, alloc[i], active)
		}
	}
	return nil
}

// EMAObjective recomputes Σ_i f(i, ϕ_i) of Eq. (21–22) from public state:
// f = V·E(ϕ) + PC_i·(τ − ϕδ/p), with E the transmission energy for ϕ > 0
// and the slot's incremental tail energy for ϕ = 0. Call it BEFORE
// Allocate advances the queues. The differential tests use it to compare
// the fast DP against AllocateRef without reaching into unexported
// state.
func EMAObjective(e *sched.EMA, slot *sched.Slot, alloc []int) float64 {
	var sum float64
	for i := 0; i < slot.NumUsers(); i++ {
		var energy, t float64
		if alloc[i] > 0 {
			energy = float64(slot.EnergyPerKBAt(i)) * float64(alloc[i]) * float64(slot.Unit)
			t = float64(alloc[i]) * float64(slot.Unit) / float64(slot.RateAt(i))
		} else if !slot.NeverActiveAt(i) {
			energy = float64(e.RRC().TailIncrement(slot.TailGapAt(i), slot.Tau))
		}
		sum += e.V()*energy + float64(e.Queue(i))*(float64(slot.Tau)-t)
	}
	return sum
}

// SameObjective reports whether two Eq. (21–22) objective values agree up
// to floating-point reassociation noise (the fast DP groups the affine
// terms differently from the reference DP).
func SameObjective(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*(1+math.Abs(want))
}

// CheckResult verifies run-level sanity invariants of a simulation result:
// non-negative energy and rebuffering everywhere, and per-slot/per-user
// series lengths consistent with the recorded slot count.
func CheckResult(res *cell.Result) error {
	if res.Slots < 0 {
		return fmt.Errorf("simtest: negative slot count %d", res.Slots)
	}
	if len(res.PerSlot) != res.Slots {
		return fmt.Errorf("simtest: %d per-slot records for %d slots", len(res.PerSlot), res.Slots)
	}
	for i, u := range res.Users {
		if u.TransEnergy < 0 || u.TailEnergy < 0 {
			return fmt.Errorf("simtest: user %d negative energy (trans %v, tail %v)", i, u.TransEnergy, u.TailEnergy)
		}
		if u.Rebuffer < 0 {
			return fmt.Errorf("simtest: user %d negative rebuffering %v", i, u.Rebuffer)
		}
		if u.CompletionSlot >= res.Slots {
			return fmt.Errorf("simtest: user %d completed at slot %d of a %d-slot run", i, u.CompletionSlot, res.Slots)
		}
	}
	for n, st := range res.PerSlot {
		if st.Energy < 0 || st.Rebuffer < 0 || st.UsedUnits < 0 {
			return fmt.Errorf("simtest: slot %d negative aggregate %+v", n, st)
		}
		if st.Fairness < 0 || st.Fairness > 1+1e-9 || math.IsNaN(st.Fairness) {
			return fmt.Errorf("simtest: slot %d Jain index %v outside [0,1]", n, st.Fairness)
		}
	}
	for i := range res.RebufferSamples {
		if len(res.RebufferSamples[i]) != res.Slots || len(res.EnergySamples[i]) != res.Slots {
			return fmt.Errorf("simtest: user %d sample series length != %d slots", i, res.Slots)
		}
	}
	return nil
}

// SameResults reports the first difference between two simulation results,
// or nil when they are deeply equal. Used by the determinism checks.
func SameResults(a, b *cell.Result) error {
	if a.SchedulerName != b.SchedulerName {
		return fmt.Errorf("simtest: scheduler %q vs %q", a.SchedulerName, b.SchedulerName)
	}
	if a.Slots != b.Slots {
		return fmt.Errorf("simtest: slot count %d vs %d", a.Slots, b.Slots)
	}
	if !reflect.DeepEqual(a.Users, b.Users) {
		return fmt.Errorf("simtest: per-user totals diverged")
	}
	if !reflect.DeepEqual(a.PerSlot, b.PerSlot) {
		return fmt.Errorf("simtest: per-slot aggregates diverged")
	}
	if !reflect.DeepEqual(a.RebufferSamples, b.RebufferSamples) ||
		!reflect.DeepEqual(a.EnergySamples, b.EnergySamples) {
		return fmt.Errorf("simtest: per-user-slot samples diverged")
	}
	if a.ClampEvents != b.ClampEvents {
		return fmt.Errorf("simtest: clamp events %d vs %d", a.ClampEvents, b.ClampEvents)
	}
	return nil
}

// SamePhysics is SameResults without the scheduler-name comparison: two
// *different* schedulers produced what must be the same run. The
// myopic-degeneration differentials use it to pin Predictive's K=0 (and
// no-information) modes byte-for-byte against the Default baseline.
func SamePhysics(a, b *cell.Result) error {
	if a.Slots != b.Slots {
		return fmt.Errorf("simtest: slot count %d vs %d", a.Slots, b.Slots)
	}
	if !reflect.DeepEqual(a.Users, b.Users) {
		return fmt.Errorf("simtest: per-user totals diverged")
	}
	if !reflect.DeepEqual(a.PerSlot, b.PerSlot) {
		return fmt.Errorf("simtest: per-slot aggregates diverged")
	}
	if !reflect.DeepEqual(a.RebufferSamples, b.RebufferSamples) ||
		!reflect.DeepEqual(a.EnergySamples, b.EnergySamples) {
		return fmt.Errorf("simtest: per-user-slot samples diverged")
	}
	if a.ClampEvents != b.ClampEvents {
		return fmt.Errorf("simtest: clamp events %d vs %d", a.ClampEvents, b.ClampEvents)
	}
	return nil
}

// SameResultsApprox compares two simulation results allowing the slot
// aggregates to differ by floating-point reassociation: the sharded tick
// engine sums per-shard partials instead of a flat per-user loop, so
// with more than one shard the PerSlot energies, rebuffering and
// fairness regroup additions. Everything accumulated per user —
// per-user totals, per-user-slot samples — and every integer field must
// still match exactly.
func SameResultsApprox(a, b *cell.Result, rtol float64) error {
	if a.SchedulerName != b.SchedulerName {
		return fmt.Errorf("simtest: scheduler %q vs %q", a.SchedulerName, b.SchedulerName)
	}
	if a.Slots != b.Slots {
		return fmt.Errorf("simtest: slot count %d vs %d", a.Slots, b.Slots)
	}
	if !reflect.DeepEqual(a.Users, b.Users) {
		return fmt.Errorf("simtest: per-user totals diverged")
	}
	if !reflect.DeepEqual(a.RebufferSamples, b.RebufferSamples) ||
		!reflect.DeepEqual(a.EnergySamples, b.EnergySamples) {
		return fmt.Errorf("simtest: per-user-slot samples diverged")
	}
	if a.ClampEvents != b.ClampEvents {
		return fmt.Errorf("simtest: clamp events %d vs %d", a.ClampEvents, b.ClampEvents)
	}
	if len(a.PerSlot) != len(b.PerSlot) {
		return fmt.Errorf("simtest: per-slot lengths %d vs %d", len(a.PerSlot), len(b.PerSlot))
	}
	near := func(x, y float64) bool {
		return math.Abs(x-y) <= rtol*(1+math.Abs(y))
	}
	for n := range a.PerSlot {
		x, y := a.PerSlot[n], b.PerSlot[n]
		if x.UsedUnits != y.UsedUnits {
			return fmt.Errorf("simtest: slot %d used units %d vs %d", n, x.UsedUnits, y.UsedUnits)
		}
		if !near(float64(x.Energy), float64(y.Energy)) {
			return fmt.Errorf("simtest: slot %d energy %v vs %v", n, x.Energy, y.Energy)
		}
		if !near(float64(x.Rebuffer), float64(y.Rebuffer)) {
			return fmt.Errorf("simtest: slot %d rebuffer %v vs %v", n, x.Rebuffer, y.Rebuffer)
		}
		if !near(x.Fairness, y.Fairness) {
			return fmt.Errorf("simtest: slot %d fairness %v vs %v", n, x.Fairness, y.Fairness)
		}
	}
	return nil
}

// CheckWorkerDeterminism runs one bounded OpenSim per worker count — each
// built fresh by build(workers), which must thread its argument into
// cell.Config.Workers — and verifies the Results are byte-identical.
// This is the executable form of Config.Workers' contract: the worker
// count parallelizes the tick path but may never change the physics,
// because the shard layout and the reduction order don't depend on it.
func CheckWorkerDeterminism(workerCounts []int, build func(workers int) (*cell.OpenSim, error)) error {
	if len(workerCounts) < 2 {
		return fmt.Errorf("simtest: need at least two worker counts to compare")
	}
	run := func(workers int) (*cell.Result, error) {
		sim, err := build(workers)
		if err != nil {
			return nil, err
		}
		return sim.Run(context.Background())
	}
	base, err := run(workerCounts[0])
	if err != nil {
		return fmt.Errorf("simtest: workers=%d: %w", workerCounts[0], err)
	}
	for _, w := range workerCounts[1:] {
		got, err := run(w)
		if err != nil {
			return fmt.Errorf("simtest: workers=%d: %w", w, err)
		}
		if err := SameResults(base, got); err != nil {
			return fmt.Errorf("simtest: result differs between workers=%d and workers=%d: %w",
				workerCounts[0], w, err)
		}
	}
	return nil
}

// CheckEngineEquivalence runs one simulation through both arms: reference
// runs it on the full-scan reference arm (the closed engine's
// RunReference), build builds it as a bounded OpenSim, whose sharded
// engine Run drives. With exact=true the Results must be byte-identical —
// guaranteed whenever the live-user count never exceeds one shard —
// otherwise the slot aggregates may differ by reassociation noise
// (SameResultsApprox at 1e-9).
func CheckEngineEquivalence(exact bool, reference func() (*cell.Result, error), build func() (*cell.OpenSim, error)) error {
	ref, err := reference()
	if err != nil {
		return fmt.Errorf("simtest: reference engine: %w", err)
	}
	sim, err := build()
	if err != nil {
		return err
	}
	got, err := sim.Run(context.Background())
	if err != nil {
		return fmt.Errorf("simtest: sharded engine: %w", err)
	}
	if exact {
		if err := SameResults(got, ref); err != nil {
			return fmt.Errorf("simtest: sharded engine deviates from reference: %w", err)
		}
		return nil
	}
	if err := SameResultsApprox(got, ref, 1e-9); err != nil {
		return fmt.Errorf("simtest: sharded engine deviates from reference: %w", err)
	}
	return nil
}

// CheckParallelDeterminism runs `jobs` independent bounded OpenSims — each
// built fresh by build(job) — through pool.Map once per worker count and
// verifies every job's result is identical across counts. It is the
// executable form of DESIGN.md's determinism guarantee: worker
// parallelism must never leak into the physics.
func CheckParallelDeterminism(ctx context.Context, workerCounts []int, jobs int, build func(job int) (*cell.OpenSim, error)) error {
	if len(workerCounts) == 0 || jobs <= 0 {
		return fmt.Errorf("simtest: need at least one worker count and one job")
	}
	idx := make([]int, jobs)
	for i := range idx {
		idx[i] = i
	}
	run := func(workers int) ([]*cell.Result, error) {
		return pool.Map(ctx, workers, idx, func(ctx context.Context, job int) (*cell.Result, error) {
			sim, err := build(job)
			if err != nil {
				return nil, err
			}
			return sim.Run(ctx)
		})
	}
	base, err := run(workerCounts[0])
	if err != nil {
		return fmt.Errorf("simtest: workers=%d: %w", workerCounts[0], err)
	}
	for _, w := range workerCounts[1:] {
		got, err := run(w)
		if err != nil {
			return fmt.Errorf("simtest: workers=%d: %w", w, err)
		}
		for j := range base {
			if err := SameResults(base[j], got[j]); err != nil {
				return fmt.Errorf("simtest: job %d differs between workers=%d and workers=%d: %w",
					j, workerCounts[0], w, err)
			}
		}
	}
	return nil
}
