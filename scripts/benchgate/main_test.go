package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

const testSpec = `{"workloads": [{"name": "dense"}, {"name": "churn"}],
 "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25},
                {"name": "energy_j", "better": "lower", "bound": 0.2}]}`

// testReport is one set of two workloads on a 2-core box at seed 42.
const testReport = `{"stamp": {"commit": "abc", "cpu": "Xeon", "nproc": 2, "gomaxprocs": 2},
 "seed": 42, "sizes": {"dense_users": 1000, "churn_slots": 40},
 "runs": [
  {"workload": "dense", "set": 0, "result": {"correct": true, "attempted": 10, "failed": 0,
    "metrics": {"wall_s": {"value": 2.0, "unit": "s"}, "energy_j": {"value": 50, "unit": "J"}}}},
  {"workload": "churn", "set": 0, "result": {"correct": true, "attempted": 20, "failed": 0,
    "metrics": {"wall_s": {"value": 1.0, "unit": "s"}, "energy_j": {"value": 30, "unit": "J"}}}}]}`

func decode[T any](t *testing.T, text string) *T {
	t.Helper()
	v := new(T)
	if err := json.Unmarshal([]byte(text), v); err != nil {
		t.Fatal(err)
	}
	return v
}

// wall sets run i's wall_s.
func wall(r *report, i int, v float64) {
	r.Runs[i].Result.Metrics["wall_s"] = struct{ Value float64 }{v}
}

// addSets appends one more set of "dense" (run 0) per given wall_s.
func addSets(t *testing.T, r *report, walls ...float64) {
	for _, v := range walls {
		extra := decode[report](t, testReport)
		wall(extra, 0, v)
		r.Runs = append(r.Runs, extra.Runs[0])
	}
}

func TestGate(t *testing.T) {
	for _, tc := range []struct {
		name string
		base func(*testing.T, *report)
		head func(*testing.T, *report)
		code int
		says string // the output must contain this, spacing aside
	}{
		{name: "identical reports pass"},
		{name: "wall_s +30% fails and names the row",
			head: func(_ *testing.T, r *report) { wall(r, 0, 2.6) }, code: 1, says: "dense wall_s 2 2.6 +30.00% 25.0% REGRESSION"},
		{name: "wall_s +20% passes",
			head: func(_ *testing.T, r *report) { wall(r, 0, 2.4) }, says: "dense wall_s 2 2.4 +20.00% 25.0% dense"},
		{name: "a better value never fails",
			head: func(_ *testing.T, r *report) { wall(r, 1, 0.1) }, says: "churn wall_s 1 0.1 -90.00% 25.0% churn"},
		{name: "a missing workload fails",
			head: func(_ *testing.T, r *report) { r.Runs = r.Runs[:1] }, code: 1, says: "FAIL churn: missing"},
		{name: "a missing metric fails",
			head: func(_ *testing.T, r *report) { delete(r.Runs[1].Result.Metrics, "energy_j") }, code: 1, says: "churn energy_j 30 NaN +NaN% 20.0% REGRESSION"},
		{name: "correct:false fails",
			head: func(_ *testing.T, r *report) { r.Runs[0].Result.Correct = false }, code: 1, says: "FAIL dense: head is not correct"},
		{name: "a higher failed share fails",
			base: func(_ *testing.T, r *report) { r.Runs[1].Result.Failed = 1 },
			head: func(_ *testing.T, r *report) { r.Runs[1].Result.Failed = 2 }, code: 1, says: "FAIL churn: failed share rose"},
		{name: "the same failed share passes",
			base: func(_ *testing.T, r *report) { r.Runs[1].Result.Failed = 1 },
			head: func(_ *testing.T, r *report) { r.Runs[1].Result.Failed = 1 }},
		{name: "different GOMAXPROCS is refused",
			head: func(_ *testing.T, r *report) { r.Stamp.GOMAXPROCS = 1 }, code: 2, says: "machines differ"},
		{name: "different seed is refused",
			head: func(_ *testing.T, r *report) { r.Seed = 7 }, code: 2, says: "seeds differ"},
		{name: "different sizes are refused",
			head: func(_ *testing.T, r *report) { r.Sizes["dense_users"] = 2000.0 }, code: 2, says: "sizes differ"},
		{name: "two sets: the median, not the first set",
			head: func(t *testing.T, r *report) { addSets(t, r, 3.2) }, code: 1, says: "dense wall_s 2 2.6 +30.00% 25.0% REGRESSION"},
		{name: "two sets: the median, not the worst set",
			head: func(t *testing.T, r *report) { addSets(t, r, 2.8) }, says: "dense wall_s 2 2.4 +20.00% 25.0% dense"},
		{name: "three sets: the median, not the mean",
			base: func(t *testing.T, r *report) { addSets(t, r, 2.0, 2.0) },
			head: func(t *testing.T, r *report) { addSets(t, r, 2.2, 9.0) }, says: "dense wall_s 2 2.2 +10.00% 25.0% dense"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sp := decode[spec](t, testSpec)
			base, head := decode[report](t, testReport), decode[report](t, testReport)
			if tc.base != nil {
				tc.base(t, base)
			}
			if tc.head != nil {
				tc.head(t, head)
			}
			var out bytes.Buffer
			if code := gate(&out, sp, base, head); code != tc.code {
				t.Errorf("exit %d, want %d\n%s", code, tc.code, out.String())
			}
			if tc.code == 0 && tc.head == nil && strings.Count(out.String(), "\n") != 1+2*2 {
				t.Errorf("want a header and one row per workload and metric:\n%s", out.String())
			}
			if got := strings.Join(strings.Fields(out.String()), " "); !strings.Contains(got, tc.says) {
				t.Errorf("output does not say %q:\n%s", tc.says, out.String())
			}
		})
	}
}
