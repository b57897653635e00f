package simtest

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"jointstream/internal/cell"
)

// TestRecordTotalsKeepsTotals: the recording level decides what a run
// keeps, never what it computes. Every scheduler × trace model × worker
// count {1, 4, max}, plus an outage arm, runs at RecordTotals and at the
// default RecordSlots; the per-user ledgers, the counters and every metric
// the figures read must agree bit for bit, and the totals-only run must
// hold no series.
func TestRecordTotalsKeepsTotals(t *testing.T) {
	for name, mk := range factories(t) {
		for _, model := range traceModels {
			for _, workers := range []int{1, 4, 0} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", name, model, workers), func(t *testing.T) {
					cfg := engineCfg()
					cfg.Workers = workers
					checkRecordTotals(t, cfg, func(cfg cell.Config) *cell.Simulator {
						sim, err := cell.New(cfg, traceSessions(t, model, 6), mk())
						if err != nil {
							t.Fatal(err)
						}
						return sim
					})
				})
			}
		}
	}
	t.Run("outage", func(t *testing.T) {
		cfg := engineCfg()
		cfg.Outages = []cell.Outage{{From: 10, To: 40}}
		checkRecordTotals(t, cfg, func(cfg cell.Config) *cell.Simulator {
			sim, err := cell.New(cfg, traceSessions(t, "sine+wgn", 6), factories(t)["EMA"]())
			if err != nil {
				t.Fatal(err)
			}
			return sim
		})
	})
}

// checkRecordTotals runs the simulator build makes from cfg at RecordSlots
// and at RecordTotals and compares the two results.
func checkRecordTotals(t *testing.T, cfg cell.Config, build func(cell.Config) *cell.Simulator) {
	t.Helper()
	run := func(level cell.RecordLevel) *cell.Result {
		cfg.Record = level
		res, err := build(cfg).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	slots, totals := run(cell.RecordSlots), run(cell.RecordTotals)
	if err := CheckResult(slots); err != nil {
		t.Fatal(err)
	}
	if err := sameTotalsOnly(totals, slots); err != nil {
		t.Error(err)
	}
}

// sameTotalsOnly is the assertion a totals-only result goes through in
// place of CheckResult's series rules: it holds no series at all, and
// everything else equals — bit for bit — the twin run that recorded them
// (which CheckResult has vetted).
func sameTotalsOnly(totals, twin *cell.Result) error {
	if totals.PerSlot != nil || totals.RebufferSamples != nil || totals.EnergySamples != nil {
		return fmt.Errorf("totals-only result holds a series (PerSlot %d, samples %d)",
			len(totals.PerSlot), len(totals.RebufferSamples))
	}
	if totals.Slots != twin.Slots || totals.ClampEvents != twin.ClampEvents || totals.DegradedSlots != twin.DegradedSlots {
		return fmt.Errorf("counters: slots %d/%d clamps %d/%d degraded %d/%d",
			totals.Slots, twin.Slots, totals.ClampEvents, twin.ClampEvents, totals.DegradedSlots, twin.DegradedSlots)
	}
	if !reflect.DeepEqual(totals.Users, twin.Users) {
		return fmt.Errorf("per-user totals diverged")
	}
	for _, m := range []struct {
		name      string
		got, want float64
	}{
		{"PE", float64(totals.PE()), float64(twin.PE())},
		{"PC", float64(totals.PC()), float64(twin.PC())},
		{"TotalEnergy", float64(totals.TotalEnergy()), float64(twin.TotalEnergy())},
		{"TotalTailEnergy", float64(totals.TotalTailEnergy()), float64(twin.TotalTailEnergy())},
		{"TransEnergyPerActiveSlot", float64(totals.TransEnergyPerActiveSlot()), float64(twin.TransEnergyPerActiveSlot())},
	} {
		if math.Float64bits(m.got) != math.Float64bits(m.want) {
			return fmt.Errorf("%s %v, want %v", m.name, m.got, m.want)
		}
	}
	return nil
}
