package jointstream

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// benchReport is what `bash benchmark/run.sh -json` writes, as far as the
// checked-in records are held to it.
type benchReport struct {
	Stamp struct {
		Commit, CPU string
		GOMAXPROCS  int
	}
	Seed    uint64
	Seconds float64
	Traced  bool
	Runs    []struct {
		Workload string
		Set      int
		Result   struct {
			Correct bool
			Failed  int
			Metrics map[string]struct{ Value float64 }
		}
	}
}

func readJSON(t *testing.T, path string, into any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, into)
	}
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestCheckedInBenchmarkRecords holds results/BENCH_benchmark.json (two
// untraced sets, the end-to-end metrics) and BENCH_benchmark_layers.json
// (one traced set, the per-layer metrics) to what BENCHMARK.json names:
// README and DESIGN §14 quote these files, and CI compares their energy and
// rebuffering with a fresh run, so a record that is partial, failed, taken
// at another seed or shorter than run_seconds must not be checked in.
func TestCheckedInBenchmarkRecords(t *testing.T) {
	var spec struct {
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []struct{ Name string }
		EndToEnd   []struct{ Name string } `json:"end_to_end"`
		PerLayer   []struct{ Name string } `json:"per_layer"`
	}
	readJSON(t, "BENCHMARK.json", &spec)

	for _, rec := range []struct {
		path    string
		traced  bool
		sets    int
		metrics []struct{ Name string }
	}{
		{"results/BENCH_benchmark.json", false, 2, spec.EndToEnd},
		{"results/BENCH_benchmark_layers.json", true, 1, spec.PerLayer},
	} {
		var rep benchReport
		readJSON(t, rec.path, &rep)
		if rep.Seed != 42 || rep.Seconds < spec.RunSeconds || rep.Traced != rec.traced {
			t.Errorf("%s: seed %d, %g s, traced %v; want 42, at least %g s, %v",
				rec.path, rep.Seed, rep.Seconds, rep.Traced, spec.RunSeconds, rec.traced)
		}
		if rep.Stamp.Commit == "" || rep.Stamp.Commit == "unknown" || rep.Stamp.CPU == "" || rep.Stamp.GOMAXPROCS == 0 {
			t.Errorf("%s: incomplete stamp %+v", rec.path, rep.Stamp)
		}
		for _, w := range spec.Workloads {
			var sets []map[string]struct{ Value float64 }
			for _, run := range rep.Runs {
				if run.Workload != w.Name {
					continue
				}
				if !run.Result.Correct || run.Result.Failed != 0 {
					t.Errorf("%s: %s set %d: correct %v, %d failed", rec.path, w.Name, run.Set, run.Result.Correct, run.Result.Failed)
				}
				sets = append(sets, run.Result.Metrics)
			}
			if len(sets) != rec.sets {
				t.Errorf("%s: %s has %d sets, want %d", rec.path, w.Name, len(sets), rec.sets)
				continue
			}
			for set, metrics := range sets {
				for _, m := range rec.metrics {
					v, ok := metrics[m.Name]
					// A layer a workload never calls reads 0; an end-to-end metric never does.
					if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || (!rec.traced && v.Value == 0) {
						t.Errorf("%s: %s set %d: %s = %v (present %v)", rec.path, w.Name, set, m.Name, v.Value, ok)
					}
				}
			}
			if rec.traced {
				continue
			}
			// Exact for a seed on any machine: what CI's staleness check compares.
			for _, name := range []string{"energy_j_per_user", "rebuffer_s_per_user"} {
				if a, b := sets[0][name], sets[1][name]; a != b {
					t.Errorf("%s: %s %s differs between the sets: %v vs %v", rec.path, w.Name, name, a.Value, b.Value)
				}
			}
		}
	}
}

// TestReadmeQuickstartIsRecorded: README's sample output of
// examples/quickstart (the first unlabelled code block of its Quickstart
// section) is the head of that example's section in
// results/examples_output.txt, verbatim, which CI holds to a fresh run.
func TestReadmeQuickstartIsRecorded(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	recorded, err := os.ReadFile("results/examples_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	_, quickstart, _ := strings.Cut(string(readme), "\n## Quickstart\n")
	var block, label string
	open, found := false, false
	for _, line := range strings.SplitAfter(quickstart, "\n") {
		info, isFence := strings.CutPrefix(line, "```")
		if isFence && !open {
			open, label = true, strings.TrimSpace(info)
		} else if isFence {
			if label == "" {
				found = true
				break
			}
			open = false
		} else if open && label == "" {
			block += line
		}
	}
	if !found || block == "" {
		t.Fatal("README.md: no sample output block under ## Quickstart")
	}
	if !strings.Contains(string(recorded), "== examples/quickstart ==\n"+block) {
		t.Errorf("README.md's quickstart output is not results/examples_output.txt's; paste the recorded section:\n%s", block)
	}
}
