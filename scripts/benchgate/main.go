// Command benchgate is the repository's one regression gate: it compares
// two reports written by `bash benchmark/run.sh -json` under the bounds of
// ./BENCHMARK.json, the rule the pipeline that judges PRs applies.
//
//	go run ./scripts/benchgate base.json head.json
//
// Exit 1: an end-to-end metric is worse than its bound, a workload is
// missing or not correct, or a larger share of its checks failed. Exit 2:
// the reports cannot be compared (machine, seed or sizes differ).
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"sort"
)

// spec is the part of BENCHMARK.json the gate needs.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Better string
		Bound        float64
	} `json:"end_to_end"`
}

// report is the part of a -json report the gate needs.
type report struct {
	Stamp struct {
		CPU               string
		NProc, GOMAXPROCS int
	}
	Seed  uint64
	Sizes map[string]any
	Runs  []struct {
		Workload string
		Result   result
	}
}

type result struct {
	Correct           bool
	Attempted, Failed int
	Metrics           map[string]struct{ Value float64 }
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchgate base.json head.json (from the root of the checkout)")
		os.Exit(2)
	}
	var sp spec
	var base, head report
	load("BENCHMARK.json", &sp)
	load(os.Args[1], &base)
	load(os.Args[2], &head)
	os.Exit(gate(os.Stdout, &sp, &base, &head))
}

func load(path string, into any) {
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, into)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %s: %v\n", path, err)
		os.Exit(2)
	}
}

// gate returns the exit code: 2 with the reason if the reports measure
// different things, else 1 or 0 after the table compare prints.
func gate(w io.Writer, sp *spec, base, head *report) int {
	why := ""
	switch {
	case base.Stamp != head.Stamp:
		why = fmt.Sprintf("machines differ: base %+v, head %+v", base.Stamp, head.Stamp)
	case base.Seed != head.Seed:
		why = fmt.Sprintf("seeds differ: base %d, head %d", base.Seed, head.Seed)
	case !reflect.DeepEqual(base.Sizes, head.Sizes):
		why = fmt.Sprintf("sizes differ: base %v, head %v", base.Sizes, head.Sizes)
	}
	if why != "" {
		fmt.Fprintln(w, "refusing to compare:", why)
		return 2
	}
	if !compare(w, sp, base, head) {
		return 1
	}
	return 0
}

// sets returns a workload's results, one per set the report holds, with
// their failed ÷ attempted share and whether every set is correct.
func (r *report) sets(workload string) (sets []result, failedShare float64, correct bool) {
	failed, attempted := 0, 0
	correct = true
	for _, e := range r.Runs {
		if e.Workload == workload {
			sets = append(sets, e.Result)
			failed, attempted = failed+e.Result.Failed, attempted+e.Result.Attempted
			correct = correct && e.Result.Correct
		}
	}
	return sets, float64(failed) / float64(max(attempted, 1)), correct
}

// median of one metric over the sets; NaN if a set lacks it.
func median(sets []result, metric string) float64 {
	xs := make([]float64, len(sets))
	for i, s := range sets {
		m, ok := s.Metrics[metric]
		if !ok {
			return math.NaN()
		}
		xs[i] = m.Value
	}
	sort.Float64s(xs)
	return (xs[(len(xs)-1)/2] + xs[len(xs)/2]) / 2
}

// compare prints one row per workload and end-to-end metric, as -repeat
// does for its two sets, and reports whether head passes.
func compare(w io.Writer, sp *spec, base, head *report) bool {
	pass := true
	fail := func(format string, args ...any) {
		pass = false
		fmt.Fprintf(w, "FAIL "+format+"\n", args...)
	}
	fmt.Fprintf(w, "%-14s %-22s %14s %14s %9s %7s\n", "workload", "metric", "base", "head", "worse by", "bound")
	for _, wl := range sp.Workloads {
		b, bShare, _ := base.sets(wl.Name)
		h, hShare, correct := head.sets(wl.Name)
		if len(b) == 0 || len(h) == 0 {
			fail("%s: missing (%d sets in base, %d in head)", wl.Name, len(b), len(h))
			continue
		}
		if !correct {
			fail("%s: head is not correct", wl.Name)
		}
		if hShare > bShare {
			fail("%s: failed share rose from %g to %g", wl.Name, bShare, hShare)
		}
		for _, m := range sp.EndToEnd {
			x, y := median(b, m.Name), median(h, m.Name)
			worse := (y - x) / x
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if !(worse <= m.Bound) { // so that NaN, a metric absent or 0 on both sides, fails
				verdict, pass = "  REGRESSION", false
			}
			fmt.Fprintf(w, "%-14s %-22s %14.6g %14.6g %+8.2f%% %6.1f%%%s\n",
				wl.Name, m.Name, x, y, 100*worse, 100*m.Bound, verdict)
		}
	}
	return pass
}
