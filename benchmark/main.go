// Command benchmark is the repository's one performance benchmark: five
// named workloads, each reporting the end-to-end metrics a user of the
// system sees and, in a traced run, what every layer contributed. Metric
// names, units and bounds live in BENCHMARK.json at the root of the
// checkout; README.md in this directory says why each workload exists.
//
//	bash benchmark/run.sh --workload cell_dense --seed 42 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// spec is BENCHMARK.json: the names this program must print.
type spec struct {
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specNamed  `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specNamed struct {
	Name string `json:"name"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// metric is one value as the driver reads it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a single-workload run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what -json stores: the results with everything needed to
// reproduce and to judge them.
type report struct {
	Stamp   provenance      `json:"stamp"`
	Seed    uint64          `json:"seed"`
	Seconds float64         `json:"seconds"`
	Traced  bool            `json:"traced"`
	Sizes   sizes           `json:"sizes"`
	Runs    []workloadEntry `json:"runs"`
}

type workloadEntry struct {
	Workload string         `json:"workload"`
	Set      int            `json:"set"`
	Result   result         `json:"result"`
	Samples  map[string]int `json:"samples"`
	WallS    []float64      `json:"wall_s_repetitions"`
	Notes    []string       `json:"notes,omitempty"`
	Trace    string         `json:"trace_file,omitempty"`
}

type options struct {
	seed     uint64
	seconds  float64
	reps     int
	trace    bool
	sz       sizes
	baseline string // figure baseline paper_sweep diffs against at seed 42
	outDir   string // where trace files go
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("workload", "", "workload name[,name]; empty runs all five")
	seed := fs.Uint64("seed", 42, "seed of every generated input")
	secs := fs.Float64("seconds", 0, "how long each workload measures; 0 takes run_seconds from BENCHMARK.json")
	reps := fs.Int("reps", 0, "timed repetitions per workload; 0 repeats until -seconds have passed")
	trace := fs.Int("trace", 0, "1 adds a traced repetition and prints the per-layer metrics")
	jsonOut := fs.String("json", "", "also write the full report to this file")
	repeat := fs.Bool("repeat", false, "run the set twice and fail if an end-to-end metric moves by more than its bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark: run from the root of the checkout:", err)
		return 1
	}
	if *secs == 0 {
		*secs = float64(sp.RunSeconds)
	}
	var picked []string
	if *names == "" {
		for _, w := range sp.Workloads {
			picked = append(picked, w.Name)
		}
	} else {
		picked = strings.Split(*names, ",")
	}
	o := options{seed: *seed, seconds: *secs, reps: *reps, trace: *trace != 0, sz: fullSizes(),
		baseline: "results/paper_scale_figures.json", outDir: "benchmark/out"}
	rep := report{Stamp: stamp(), Seed: o.seed, Seconds: o.seconds, Traced: o.trace, Sizes: o.sz}
	fmt.Fprintf(stdout, "# commit=%s cpu=%q nproc=%d GOMAXPROCS=%d %s seed=%d seconds=%g trace=%d\n",
		rep.Stamp.Commit, rep.Stamp.CPU, rep.Stamp.NProc, rep.Stamp.GOMAXPROCS, rep.Stamp.Go, o.seed, o.seconds, *trace)
	if sz, err := json.Marshal(o.sz); err == nil {
		fmt.Fprintf(stdout, "# sizes=%s\n", sz)
	}

	if *repeat {
		rep.Runs, err = repeatSets(picked, &o, stdout, stderr)
	} else {
		rep.Runs, err = runSet(picked, &o, sp, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	code := 0
	for _, e := range rep.Runs {
		if !e.Result.Correct {
			code = 1
		}
	}
	if *repeat && !compareSets(stdout, rep.Runs, sp) {
		code = 1
	}
	if *jsonOut != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	// With one workload the driver reads the result from the last line.
	if len(rep.Runs) == 1 && !*repeat {
		b, err := json.Marshal(rep.Runs[0].Result)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", b)
	}
	return code
}

// runSet runs the picked workloads one after the other in this process.
func runSet(picked []string, o *options, sp *spec, stdout, stderr io.Writer) ([]workloadEntry, error) {
	var runs []workloadEntry
	for _, name := range picked {
		w, err := newWorkload(name, o)
		if err != nil {
			return nil, err
		}
		out, err := runWorkload(w, o)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		e, err := out.entry(name, sp, o.trace)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if out.tr != nil {
			if e.Trace, err = out.tr.write(o.outDir, name, o.seed, out.layers); err != nil {
				return nil, err
			}
		}
		runs = append(runs, e)
		printEntry(stdout, stderr, e)
	}
	return runs, nil
}

// printEntry lists every metric by name with its unit, then the checks.
func printEntry(stdout, stderr io.Writer, e workloadEntry) {
	fmt.Fprintf(stdout, "== %s (set %d)\n", e.Workload, e.Set)
	names := make([]string, 0, len(e.Result.Metrics))
	for n := range e.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := e.Result.Metrics[n]
		fmt.Fprintf(stdout, "%-34s %16.6g %s\n", n, m.Value, m.Unit)
	}
	keys := make([]string, 0, len(e.Samples))
	for k := range e.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(stdout, "samples.%-26s %16d count\n", k, e.Samples[k])
	}
	fmt.Fprintf(stdout, "checks: %d attempted, %d failed, failed_frac %g\n",
		e.Result.Attempted, e.Result.Failed, float64(e.Result.Failed)/float64(e.Result.Attempted))
	for _, n := range e.Notes {
		fmt.Fprintln(stderr, "benchmark: check failed:", n)
	}
	if e.Trace != "" {
		fmt.Fprintf(stdout, "trace: %s\n", e.Trace)
	}
}

// repeatSets runs the picked workloads twice over, each run in a process
// of its own as the driver does it: a run that follows another in the same
// process inherits its heap, and set-up times of milliseconds then differ by
// half between the sets. The children print their metrics as they go.
func repeatSets(picked []string, o *options, stdout, stderr io.Writer) ([]workloadEntry, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	var runs []workloadEntry
	for set := 0; set < 2; set++ {
		for _, name := range picked {
			file := filepath.Join(o.outDir, fmt.Sprintf("repeat_%d_%s.json", set, name))
			trace := "0"
			if o.trace {
				trace = "1"
			}
			cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
				"-reps", fmt.Sprint(o.reps), "-trace", trace, "-json", file)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				return nil, fmt.Errorf("%s, set %d: %w", name, set, err)
			}
			b, err := os.ReadFile(file)
			if err != nil {
				return nil, err
			}
			var child report
			if err := json.Unmarshal(b, &child); err != nil || len(child.Runs) != 1 {
				return nil, fmt.Errorf("%s: %d runs, %v", file, len(child.Runs), err)
			}
			child.Runs[0].Set = set
			runs = append(runs, child.Runs[0])
		}
	}
	return runs, nil
}

// compareSets prints, for every end-to-end metric of every workload, the
// values of the two sets, their relative difference in the metric's worse
// direction and the bound; it reports whether every pair agrees.
func compareSets(stdout io.Writer, runs []workloadEntry, sp *spec) bool {
	agree := true
	fmt.Fprintf(stdout, "== repeat\n%-14s %-22s %14s %14s %9s %7s\n", "workload", "metric", "set 0", "set 1", "worse by", "bound")
	for _, a := range runs {
		if a.Set != 0 {
			continue
		}
		for _, b := range runs {
			if b.Set != 1 || b.Workload != a.Workload {
				continue
			}
			for _, m := range sp.EndToEnd {
				x, y := a.Result.Metrics[m.Name].Value, b.Result.Metrics[m.Name].Value
				worse := (y - x) / x
				if m.Better == "higher" {
					worse = (x - y) / x
				}
				verdict := ""
				if math.Abs(worse) > m.Bound {
					verdict, agree = "  DISAGREE", false
				}
				fmt.Fprintf(stdout, "%-14s %-22s %14.6g %14.6g %+8.2f%% %6.1f%%%s\n",
					a.Workload, m.Name, x, y, 100*worse, 100*m.Bound, verdict)
			}
		}
	}
	return agree
}

// runner is one of the five workloads. setup builds the inputs from the seed and is
// itself repeated and timed; rep runs the timed region once, recording
// spans when tr is not nil.
type runner interface {
	setup() error
	rep(tr *tracer, chk *checker) (*repResult, error)
}

// repResult is what one repetition measured.
type repResult struct {
	prep      time.Duration // untimed preparation inside the repetition; counts as set-up
	reference time.Duration // the one-worker arm, run once per set-up; not measuring time
	main      *region       // the timed region, all cores
	slotNS    []float64     // one Advance / AdvanceTo / Step each, in order
	userSlots float64       // in-service users summed over the timed slots
	slots     float64       // slots the timed region simulated
	ended     float64       // sessions that ended in the timed region
	users     float64       // sessions the two totals below cover
	energyMJ  float64
	rebufferS float64
	layer     map[string]float64 // counts and timings only this workload has
}

// outcome gathers a workload's repetitions.
type outcome struct {
	setups  []float64
	reps    []*repResult
	traced  *repResult
	tr      *tracer
	layers  map[string]*layerTime // of the traced repetition
	probes  map[string]float64
	chk     checker
	samples map[string]int
}

// Set-up runs at least setupReps times, and a cheap one keeps repeating for
// setupMinTime (at most setupMaxReps times), so that setup_s is a median of
// several runs and a set-up of milliseconds is a median of many.
const (
	setupReps    = 3
	setupMaxReps = 64
	setupMinTime = 500 * time.Millisecond
)

// tracerCapacity bounds a traced repetition; the largest (gateway_churn,
// cell_churn) record under 400 000 spans, and a dropped span is a failed check.
const tracerCapacity = 1 << 20

func runWorkload(w runner, o *options) (*outcome, error) {
	out := &outcome{samples: map[string]int{}}
	begin := time.Now()
	for i := 0; i < setupReps || (i < setupMaxReps && time.Since(begin) < setupMinTime); i++ {
		runtime.GC() // each set-up pays for its own garbage only
		t := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.setups = append(out.setups, time.Since(t).Seconds())
	}
	budget := o.seconds
	if o.trace {
		budget /= 2
	}
	start := time.Now()
	more := func(n int) bool {
		if o.reps > 0 {
			return n < o.reps
		}
		return n == 0 || time.Since(start).Seconds() < budget
	}
	for n := 0; more(n); n++ {
		r, err := w.rep(nil, &out.chk)
		if err != nil {
			return nil, err
		}
		budget += r.reference.Seconds()
		out.reps = append(out.reps, r)
		if first := out.reps[0]; n > 0 {
			out.chk.ok(r.energyMJ == first.energyMJ && r.rebufferS == first.rebufferS && r.userSlots == first.userSlots,
				"repetition %d differs from repetition 0 on the same inputs: energy %v vs %v mJ, rebuffering %v vs %v s",
				n, r.energyMJ, first.energyMJ, r.rebufferS, first.rebufferS)
		}
	}
	if !o.trace {
		return out, nil
	}
	out.tr = newTracer(tracerCapacity)
	r, err := w.rep(out.tr, &out.chk)
	if err != nil {
		return nil, err
	}
	out.chk.ok(out.tr.dropped.Load() == 0, "trace buffer dropped %d spans", out.tr.dropped.Load())
	out.chk.ok(r.energyMJ == out.reps[0].energyMJ && r.rebufferS == out.reps[0].rebufferS,
		"traced repetition changed the outputs: energy %v vs %v mJ", r.energyMJ, out.reps[0].energyMJ)
	out.traced = r
	out.probes, err = layerProbes(o, &out.chk)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// entry turns the repetitions into the metrics BENCHMARK.json names: the
// end-to-end ones from the untraced repetitions, the per-layer ones in a
// traced run. A name BENCHMARK.json lists and this program does not
// compute is an error, so the two cannot drift apart.
func (out *outcome) entry(name string, sp *spec, traced bool) (workloadEntry, error) {
	var prep, wall, heap, userSlotsPerS []float64
	for _, r := range out.reps {
		prep = append(prep, r.prep.Seconds())
		wall = append(wall, r.main.wall.Seconds())
		heap = append(heap, r.main.peakHeapMB)
		userSlotsPerS = append(userSlotsPerS, ratio(r.userSlots, r.main.wall.Seconds()))
	}
	r0 := out.reps[0]
	vals := map[string]float64{
		"setup_s":             median(out.setups) + median(prep),
		"wall_s":              median(wall),
		"peak_heap_mb":        median(heap),
		"energy_j_per_user":   r0.energyMJ / 1000 / r0.users,
		"rebuffer_s_per_user": r0.rebufferS / r0.users,
	}
	out.samples["setup_s"] = len(out.setups)
	out.samples["wall_s"] = len(wall)
	want := sp.EndToEnd
	if traced {
		want = sp.PerLayer
		out.layerMetrics(vals, median(wall), median(userSlotsPerS))
	}
	e := workloadEntry{Workload: name, Samples: out.samples, WallS: wall, Notes: out.chk.notes}
	e.Result = result{Correct: out.chk.failed == 0, Attempted: out.chk.attempted, Failed: out.chk.failed,
		Metrics: map[string]metric{}}
	for _, m := range want {
		v, ok := vals[m.Name]
		if !ok {
			return e, fmt.Errorf("BENCHMARK.json names %q, which the benchmark does not compute", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return e, fmt.Errorf("metric %q is %v", m.Name, v)
		}
		e.Result.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	return e, nil
}

// layerMetrics adds the per-layer values: slot timings and runtime counters
// pooled over the untraced repetitions, span-derived ones from the traced
// repetition, and the layer probes.
func (out *outcome) layerMetrics(vals map[string]float64, wallS, userSlotsPerS float64) {
	var slotUS, ended, allocs, gcPause, gcCycles, allocMB []float64
	goroutines := 0
	for _, r := range out.reps {
		for _, ns := range r.slotNS {
			slotUS = append(slotUS, ns/1e3)
		}
		ended = append(ended, ratio(r.ended, r.main.wall.Seconds()))
		allocs = append(allocs, ratio(r.main.mallocs, r.slots))
		gcPause = append(gcPause, r.main.gcPauseMS)
		gcCycles = append(gcCycles, r.main.gcCycles)
		allocMB = append(allocMB, r.main.allocMB)
		goroutines = max(goroutines, r.main.goroutines)
	}
	vals["user_slots_per_s"] = userSlotsPerS
	vals["slot_us_p50"] = median(slotUS)
	vals["slot_us_p99"] = quantile(slotUS, 0.99)
	vals["sessions_per_s"] = median(ended)
	vals["allocs_per_slot"] = median(allocs)
	vals["go.gc_pause_ms"] = median(gcPause)
	vals["go.gc_cycles"] = median(gcCycles)
	vals["go.alloc_mb"] = median(allocMB)
	vals["go.goroutines_peak"] = float64(goroutines)
	out.samples["slot_us"] = len(slotUS)

	// Every workload prints every per-layer name; a layer it never
	// calls did no work there and reads 0.
	for _, n := range workloadLayerNames {
		vals[n] = 0
	}
	for k, v := range out.traced.layer {
		vals[k] = v
	}
	for k := range out.reps[0].layer {
		var xs []float64
		for _, r := range out.reps {
			xs = append(xs, r.layer[k])
		}
		vals[k] = median(xs)
	}
	for k, v := range out.probes {
		vals[k] = v
	}
	byName, regionMS, regionSelfMS := out.tr.layers()
	out.layers = byName
	for _, m := range spanMetrics {
		l := byName[m.span]
		if l == nil {
			vals[m.metric] = 0
			continue
		}
		durs := out.tr.durations(m.span)
		out.samples[m.span] = len(durs)
		switch m.field {
		case "total_ms":
			vals[m.metric] = l.TotalMS
		case "self_ms":
			vals[m.metric] = l.SelfMS
		case "share":
			vals[m.metric] = ratio(l.TotalMS, regionMS)
		case "p50_us":
			vals[m.metric] = median(durs) / 1e3
		case "p99_us":
			vals[m.metric] = quantile(durs, 0.99) / 1e3
		}
	}
	tracedWall := out.traced.main.wall.Seconds()
	vals["bench.trace_overhead_frac"] = (tracedWall - wallS) / wallS
	vals["bench.trace_self_frac"] = ratio(regionSelfMS, regionMS)
	vals["bench.trace_spans"] = float64(len(out.tr.recorded()))
}

// spanMetrics derives per-layer metrics from the spans of the traced
// repetition: a span's summed time, its self time, its share of the timed
// region, or a percentile of its calls.
var spanMetrics = []struct{ metric, span, field string }{
	{"sched.allocate_ms", "sched.Allocate", "total_ms"},
	{"sched.allocate_us_p50", "sched.Allocate", "p50_us"},
	{"sched.allocate_share", "sched.Allocate", "share"},
	{"cell.advance_self_ms", "cell.Advance", "self_ms"},
	{"open.admit_us_p50", "open.Admit", "p50_us"},
	{"open.admit_us_p99", "open.Admit", "p99_us"},
	{"open.depart_us_p50", "open.DepartSerial", "p50_us"},
	{"open.advance_self_ms", "open.AdvanceTo", "self_ms"},
	{"gateway.attach_us_p50", "gateway.Attach", "p50_us"},
	{"gateway.step_us_p50", "gateway.Step", "p50_us"},
	{"gateway.step_us_p99", "gateway.Step", "p99_us"},
	{"gateway.step_self_ms", "gateway.Step", "self_ms"},
	{"gateway.report_ms", "gateway.Endpoint.Report", "total_ms"},
	{"gateway.deliver_ms", "gateway.Endpoint.Deliver", "total_ms"},
	{"gateway.source_read_ms", "gateway.Source.Read", "total_ms"},
}

// workloadLayerNames lists what the workloads put in repResult.layer, so a
// workload that never calls a layer still prints its metrics, as 0.
var workloadLayerNames = []string{
	"scaling_x",
	"experiments.cache_hit_rate", "experiments.arm_groups", "experiments.arms_per_group",
	"experiments.fig_ms.2", "experiments.fig_ms.3", "experiments.fig_ms.4a", "experiments.fig_ms.4b",
	"experiments.fig_ms.5a", "experiments.fig_ms.5b", "experiments.fig_ms.6", "experiments.fig_ms.7",
	"experiments.fig_ms.8a", "experiments.fig_ms.8b", "experiments.fig_ms.9a", "experiments.fig_ms.9b",
	"experiments.fig_ms.10",
	"cell.new_ms", "cell.link_compile_ms", "cell.link_mb", "cell.advance_ms", "cell.steady_us_p50",
	"cell.rollover_us_p50", "cell.rollover_x", "cell.ns_per_user_slot", "cell.finish_ms", "cell.clamp_events",
	"cell.w1_ms", "cell.wmax_ms",
	"open.steady_us_p50", "open.rollover_us_p50", "open.rollover_x", "open.tail_share", "open.admitted",
	"open.rejected", "open.completed", "open.departed", "open.in_service_mean", "open.quantile_us", "open.finish_ms",
	"deploy.run_ms", "deploy.epoch_ms_p50", "deploy.epoch_ms_max", "deploy.epochs", "deploy.w1_ms",
	"deploy.wmax_ms", "deploy.sched_share",
	"gateway.step_growth_x", "gateway.users_total", "gateway.tcp.attach_us_p50", "gateway.tcp.frame_us_p50",
	"gateway.tcp.mb_per_s",
}

func newWorkload(name string, o *options) (runner, error) {
	switch name {
	case "paper_sweep":
		return &paperSweep{o: o}, nil
	case "cell_dense":
		return &cellDense{o: o}, nil
	case "cell_churn":
		return &cellChurn{o: o}, nil
	case "fleet_stream":
		return &fleetStream{o: o}, nil
	case "gateway_churn":
		return &gatewayChurn{o: o}, nil
	}
	return nil, errors.New("unknown workload " + name)
}
