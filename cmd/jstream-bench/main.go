// Command jstream-bench regenerates the paper's evaluation figures
// (Figs. 2–10) and checks the headline claims.
//
// Usage:
//
//	jstream-bench                 # every figure + claims at paper scale
//	jstream-bench -fig 5a         # one figure
//	jstream-bench -claims         # claims table only
//	jstream-bench -ext all        # every extension experiment
//	jstream-bench -quick          # miniature workload (seconds, CI)
//
// Output is a set of aligned ASCII tables, one per figure, in the same
// units the paper plots. How long any of it takes is measured by
// benchmark/ (bash benchmark/run.sh), not here.
//
// The figures depend on the EMA scheduler's fast DP; its correctness
// harness lives in internal/simtest and, bit for bit against an unclipped
// oracle, in internal/sched. Before trusting numbers from a modified
// scheduler, run the 30-second fuzz smokes alongside the deterministic
// suite:
//
//	go test ./...
//	go test -fuzz=FuzzEMAAllocate -fuzztime=30s ./internal/simtest
//	go test -fuzz=FuzzEMAKernel -fuzztime=30s ./internal/sched
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"jointstream/internal/experiments"
)

func main() {
	os.Exit(realMain())
}

// realMain parses flags, wraps the dispatched mode in the optional
// pprof collectors, and funnels every mode through one exit path so
// deferred profile writers always run (os.Exit skips defers).
func realMain() int {
	var (
		figID      = flag.String("fig", "all", "figure to regenerate: all|2|3|4a|4b|5a|5b|6|7|8a|8b|9a|9b|10")
		quick      = flag.Bool("quick", false, "use the miniature CI workload")
		claimsOnly = flag.Bool("claims", false, "print only the headline-claims table")
		seed       = flag.Uint64("seed", 0, "override workload seed (0 keeps the default)")
		ext        = flag.String("ext", "", "extension experiment: lte|vbr|arrivals|dormancy|oracle|abr|adaptive|predictive|seeds|all")
		seeds      = flag.Int("seeds", 3, "seed count for -ext seeds")
		jsonOut    = flag.String("json", "", "also export the regenerated figures as JSON to this file")
		parallel   = flag.Bool("parallel", false, "regenerate all figures concurrently on all CPUs")
		htmlOut    = flag.String("html", "", "also render the regenerated figures as an HTML report to this file")
		diffBase   = flag.String("diff", "", "compare a fresh run against this baseline JSON export and report drift")
		diffTol    = flag.Float64("tol", 0.001, "relative tolerance for -diff")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the selected mode to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile taken after the selected mode to this file")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jstream-bench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "jstream-bench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	err := dispatch(dispatchArgs{
		figID: *figID, quick: *quick, claimsOnly: *claimsOnly, seed: *seed,
		ext: *ext, seeds: *seeds, jsonOut: *jsonOut, parallel: *parallel,
		htmlOut: *htmlOut, diffBase: *diffBase, diffTol: *diffTol,
	})

	if *memProfile != "" {
		f, perr := os.Create(*memProfile)
		if perr == nil {
			runtime.GC() // settle allocations so the heap profile reflects retention
			perr = pprof.WriteHeapProfile(f)
			f.Close()
		}
		if perr != nil {
			fmt.Fprintln(os.Stderr, "jstream-bench: memprofile:", perr)
			if err == nil {
				err = perr
			}
		}
	}

	if err != nil {
		fmt.Fprintln(os.Stderr, "jstream-bench:", err)
		return 1
	}
	return 0
}

type dispatchArgs struct {
	figID      string
	quick      bool
	claimsOnly bool
	seed       uint64
	ext        string
	seeds      int
	jsonOut    string
	parallel   bool
	htmlOut    string
	diffBase   string
	diffTol    float64
}

// dispatch runs the one requested mode: an extension, a baseline diff, or
// a figure run (all figures, one of them, or the claims table alone).
func dispatch(a dispatchArgs) error {
	mode, err := a.mode()
	if err != nil {
		return err
	}
	switch mode {
	case "-ext":
		r, err := newRunner(a.quick, a.seed)
		if err != nil {
			return err
		}
		return r.Extension(os.Stdout, a.ext, a.seeds)
	case "-diff":
		return runDiff(a.diffBase, a.quick, a.seed, a.diffTol)
	default:
		return run(a.figID, a.quick, a.claimsOnly, a.seed, a.jsonOut, a.htmlOut, a.parallel)
	}
}

// mode names the flag that selects the run ("" for the full figure run)
// and rejects combinations in which one flag would silently win: two
// selectors, or an output flag the selected run never reads.
func (a dispatchArgs) mode() (string, error) {
	var picked, ignored []string
	add := func(to *[]string, flag string, set bool) {
		if set {
			*to = append(*to, flag)
		}
	}
	add(&picked, "-ext", a.ext != "")
	add(&picked, "-diff", a.diffBase != "")
	add(&picked, "-fig", !strings.EqualFold(a.figID, "all"))
	add(&picked, "-claims", a.claimsOnly)
	if len(picked) > 1 {
		return "", fmt.Errorf("%s select different runs; give one", strings.Join(picked, " and "))
	}
	mode := strings.Join(picked, "")
	exports := mode == "" || mode == "-fig" // the runs that reach exportOutputs
	add(&ignored, "-json", a.jsonOut != "" && !exports)
	add(&ignored, "-html", a.htmlOut != "" && !exports)
	add(&ignored, "-parallel", a.parallel && mode != "")
	if len(ignored) > 0 {
		return "", fmt.Errorf("%s has no effect with %s", strings.Join(ignored, ", "), mode)
	}
	return mode, nil
}

// newRunner builds the experiment runner at the requested scale.
func newRunner(quick bool, seed uint64) (*experiments.Runner, error) {
	opts := experiments.PaperOptions()
	if quick {
		opts = experiments.QuickOptions()
	}
	if seed != 0 {
		opts.Seed = seed
	}
	return experiments.NewRunner(opts)
}

// runDiff regenerates all figures and compares them to a baseline export.
func runDiff(baseline string, quick bool, seed uint64, tol float64) error {
	f, err := os.Open(baseline)
	if err != nil {
		return err
	}
	defer f.Close()
	want, err := experiments.ReadJSON(f)
	if err != nil {
		return err
	}
	r, err := newRunner(quick, seed)
	if err != nil {
		return err
	}
	got, err := r.AllParallel(context.Background(), 0)
	if err != nil {
		return err
	}
	logWorkloadCache(r)
	diffs, err := experiments.Diff(got, want, tol)
	if err != nil {
		return err
	}
	if len(diffs) == 0 {
		fmt.Printf("all %d figures match %s (tolerance %.2g)\n", len(got), baseline, tol)
		return nil
	}
	for _, d := range diffs {
		fmt.Println(d)
	}
	return fmt.Errorf("%d differences against %s", len(diffs), baseline)
}

func exportOutputs(rendered []*experiments.Figure, jsonOut, htmlOut string) error {
	if jsonOut != "" {
		f, err := os.Create(jsonOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := experiments.WriteJSON(f, rendered); err != nil {
			return err
		}
		fmt.Printf("figures exported to %s\n", jsonOut)
	}
	if htmlOut != "" {
		f, err := os.Create(htmlOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := writeHTML(f, "jointstream reproduction report", rendered); err != nil {
			return err
		}
		fmt.Printf("HTML report written to %s\n", htmlOut)
	}
	return nil
}

func run(figID string, quick, claimsOnly bool, seed uint64, jsonOut, htmlOut string, parallel bool) error {
	r, err := newRunner(quick, seed)
	if err != nil {
		return err
	}

	if claimsOnly {
		return printClaims(r)
	}

	all := strings.EqualFold(figID, "all")
	var rendered []*experiments.Figure
	if all {
		workers := 1 // in order, inline
		if parallel {
			workers = 0
		}
		if rendered, err = r.AllParallel(context.Background(), workers); err != nil {
			return err
		}
		if parallel {
			logWorkloadCache(r)
		}
	} else {
		fig, err := r.Figure(strings.ToLower(figID))
		if err != nil {
			return err
		}
		rendered = append(rendered, fig)
	}
	for _, figure := range rendered {
		if err := experiments.Render(os.Stdout, figure); err != nil {
			return err
		}
		fmt.Println()
	}
	if err := exportOutputs(rendered, jsonOut, htmlOut); err != nil {
		return err
	}
	if all {
		return printClaims(r)
	}
	return nil
}

// logWorkloadCache echoes how many simulations reused a shared
// scenario workload (generation + link-table compilation amortized), and
// how many link-table rows the runs reached against an eager fill's.
func logWorkloadCache(r *experiments.Runner) {
	hits, misses := r.WorkloadCacheStats()
	fmt.Printf("workload cache: %d hits, %d misses (%d scenarios compiled once, reused %d times)\n",
		hits, misses, misses, hits)
	filled, horizon := r.LinkFillStats()
	fmt.Printf("link tables: %d of %d rows filled (users × MaxSlots)\n", filled, horizon)
}

func printClaims(r *experiments.Runner) error {
	claims, err := r.Claims()
	if err != nil {
		return err
	}
	fmt.Println("Headline claims (paper vs this reproduction):")
	return experiments.RenderClaims(os.Stdout, claims)
}
