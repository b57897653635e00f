// Package experiments regenerates every figure of the paper's evaluation
// (§VI, Figs. 2–10) and the extension experiments beyond it. Each figure
// is a registry row (figures.go, extensions.go) that runs the required
// simulations and returns a Figure: labeled series of (x, y) points that
// correspond to the paper's plotted curves, plus notes recording how
// derived parameters (RTMA's φ, EMA's V) were obtained.
//
// The harness follows the paper's experimental protocol:
//
//   - The Default greedy strategy is run first; its measured energy and
//     rebuffering provide the reference values E_Default and R_Default.
//   - RTMA's budget is Φ = α·E_Default (E_Default measured as transmission
//     energy per radio-active user-slot, the Eq. 12 scale — see DESIGN.md).
//   - EMA's rebuffering bound is Ω = β·R_Default; the Lyapunov weight V is
//     calibrated by bisection so the measured PC meets Ω, since the paper
//     does not publish its Ω→V mapping.
//
// All runs are deterministic in Options.Seed. Results are memoized within
// a Runner so figures sharing a scenario (e.g. Figs. 2 and 3) reuse runs.
package experiments

import (
	"context"
	"fmt"
	"sync/atomic"

	"jointstream/internal/cell"
	"jointstream/internal/metrics"
	"jointstream/internal/oracle"
	"jointstream/internal/rng"
	"jointstream/internal/sched"
	"jointstream/internal/units"
	"jointstream/internal/workload"
)

// Options selects the workload scale of the experiment suite.
type Options struct {
	// Seed drives all workload generation.
	Seed uint64
	// Cell is the base simulator configuration.
	Cell cell.Config
	// UserCounts is the x-axis of the user-number sweeps (Figs. 4a, 5, 8a,
	// 9, 10).
	UserCounts []int
	// AvgSizesMB is the x-axis of the data-amount sweeps (Figs. 4b, 8b).
	AvgSizesMB []float64
	// CDFUsers and CDFAvgSizeMB configure the CDF figures (2, 3, 6, 7).
	CDFUsers     int
	CDFAvgSizeMB float64
	// Alphas and Betas are the constraint sweeps of Figs. 4 and 8.
	Alphas, Betas []float64
	// CalibrationSteps is the bisection depth for V (each step is one
	// simulation run).
	CalibrationSteps int
	// SignalPeriodSlots overrides the channel fade period (0 keeps the
	// workload default). Quick suites with short sessions scale it down
	// so every session still spans several fade cycles.
	SignalPeriodSlots int
}

// PaperOptions returns the full §VI experiment scale: users 20–40, videos
// averaging 150–550 MB, CDFs at N=40 with 350 MB averages.
func PaperOptions() Options {
	return Options{
		Seed:             42,
		Cell:             cell.PaperConfig(),
		UserCounts:       []int{20, 25, 30, 35, 40},
		AvgSizesMB:       []float64{150, 250, 350, 450, 550},
		CDFUsers:         40,
		CDFAvgSizeMB:     350,
		Alphas:           []float64{0.8, 1.0, 1.2},
		Betas:            []float64{0.8, 1.0, 1.2},
		CalibrationSteps: 9,
	}
}

// QuickOptions returns a miniature suite (small videos, few users) that
// exercises every figure path in seconds; used by tests and CI.
func QuickOptions() Options {
	cfg := cell.PaperConfig()
	// 3.8 MB/s against ~3.6 MB/s of demand at 8 users: tight enough that
	// fairness differences between schedulers are visible without overload.
	cfg.Capacity = 3800
	cfg.MaxSlots = 2000
	return Options{
		Seed:              42,
		Cell:              cfg,
		UserCounts:        []int{4, 8},
		AvgSizesMB:        []float64{10, 20},
		CDFUsers:          8,
		CDFAvgSizeMB:      15,
		Alphas:            []float64{0.8, 1.0, 1.2},
		Betas:             []float64{0.8, 1.0, 1.2},
		CalibrationSteps:  6,
		SignalPeriodSlots: 24,
	}
}

// validate checks the options.
func (o Options) validate() error {
	if err := o.Cell.Validate(); err != nil {
		return err
	}
	if len(o.UserCounts) == 0 || len(o.AvgSizesMB) == 0 {
		return fmt.Errorf("experiments: empty sweep axes")
	}
	for _, n := range o.UserCounts {
		if n <= 0 {
			return fmt.Errorf("experiments: non-positive user count %d", n)
		}
	}
	for _, mb := range o.AvgSizesMB {
		if mb <= 0 {
			return fmt.Errorf("experiments: non-positive average size %v", mb)
		}
	}
	if o.CDFUsers <= 0 || o.CDFAvgSizeMB <= 0 {
		return fmt.Errorf("experiments: invalid CDF scenario (%d users, %v MB)", o.CDFUsers, o.CDFAvgSizeMB)
	}
	if len(o.Alphas) == 0 || len(o.Betas) == 0 {
		return fmt.Errorf("experiments: empty alpha/beta sweeps")
	}
	if o.CalibrationSteps < 1 {
		return fmt.Errorf("experiments: need at least one calibration step")
	}
	return nil
}

// Series is one labeled curve of a figure.
type Series struct {
	Label string
	X, Y  []float64
}

// Figure is the regenerated content of one paper figure.
type Figure struct {
	ID     string // "Fig. 2", "Fig. 4a", ...
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// Runner executes figures, memoizing simulation results by scenario so
// shared Default reference runs are computed once. Runner is safe for
// concurrent use: simultaneous requests for the same run coalesce onto a
// single simulation (one memo), so AllParallel never duplicates work.
//
// Beneath the result memo sits a workload memo: every scenario's
// sessions are generated once, their link table compiled once, and the
// pair shared by every scheduler run over that scenario (a (users,
// avgSize) scenario is simulated by up to eight schedulers plus the EMA
// calibration ladder). The table is a fill-once cache of slot blocks
// (cell.LinkTable): a block is filled by the first run to reach it and
// read by every later one, so the sweep fills only the slots its longest
// runs reach, and the table is the one writer of the sessions' memos —
// runs read the sessions only through it. A scenario over the table cap
// has no table; its leader prewarms the sessions to the horizon before
// publishing, after which every run's Prewarm is a read-only no-op.
type Runner struct {
	opts Options

	results   memo[*cell.Result]    // by runKey
	workloads memo[*sharedWorkload] // by workloadKey
	brackets  memo[oracle.Bounds]   // the tail-accounted oracle bracket, by workloadKey

	// shape, if set, changes every scenario's workload: the extensions that
	// stagger arrivals or jitter the rate run on a sub-runner that sets it.
	shape func(*workload.Config)

	// runCtx holds the context the current parallel suite runs under;
	// simulate threads it into cell.RunCtx so a cancelled AllParallel
	// stops in-flight simulations within one slot instead of letting
	// them finish their horizon. Nil means context.Background().
	runCtx atomic.Pointer[context.Context]
}

// setRunContext installs the context every subsequent simulation is
// checked against. It returns a restore function (AllParallel defers it
// so sequential callers keep Background semantics).
func (r *Runner) setRunContext(ctx context.Context) func() {
	r.runCtx.Store(&ctx)
	return func() { r.runCtx.Store(nil) }
}

// runContext returns the context simulations should honor.
func (r *Runner) runContext() context.Context {
	if p := r.runCtx.Load(); p != nil {
		return *p
	}
	return context.Background()
}

// sharedWorkload is one scenario's workload plus its link table (nil when
// the table would exceed the size cap).
type sharedWorkload struct {
	sessions []*workload.Session
	link     *cell.LinkTable
}

// NewRunner validates the options and returns a Runner.
func NewRunner(opts Options) (*Runner, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	return &Runner{opts: opts}, nil
}

// WorkloadCacheStats reports how often simulations reused an
// already-generated scenario workload: hits are runs that skipped both
// workload generation and link-table compilation; misses are the
// distinct scenarios actually built.
func (r *Runner) WorkloadCacheStats() (hits, misses int64) {
	return r.workloads.stats()
}

// MultiArmStats always reports (0, 0): every run is one simulation of its
// own, and no arms are grouped any more. It stays only because the
// benchmark's experiments.arm_groups and arms_per_group rows read it, and
// goes with those rows (ROADMAP item 10).
func (r *Runner) MultiArmStats() (groups, runs int64) {
	return 0, 0
}

// scenario identifies one workload setting.
type scenario struct {
	users     int
	avgSizeMB float64
	recordCDF bool
}

// workload is the scenario's workload configuration on this runner.
func (r *Runner) workload(sc scenario) workload.Config {
	cfg := workload.PaperDefaults(sc.users).WithAvgSize(units.KB(sc.avgSizeMB * 1000))
	if r.opts.SignalPeriodSlots > 0 {
		cfg.Signal.PeriodSlots = r.opts.SignalPeriodSlots
	}
	if r.shape != nil {
		r.shape(&cfg)
	}
	return cfg
}

// sub clones this runner with a modified configuration and, with shape, a
// modified workload; the clone has its own memoization cache.
func (r *Runner) sub(mutate func(*Options), shape func(*workload.Config)) (*Runner, error) {
	opts := r.opts
	if mutate != nil {
		mutate(&opts)
	}
	s, err := NewRunner(opts)
	if err != nil {
		return nil, err
	}
	s.shape = shape
	return s, nil
}

// schedBuilder constructs a fresh scheduler for a run. Schedulers carry
// per-run state, so every simulation gets a new instance. Builders that
// need the scenario's shared assets — the Predictive scheduler reads its
// forecast from the compiled link table — set buildWith instead of
// build; simulate resolves the workload first and passes it in.
type schedBuilder struct {
	key       string // cache key component
	build     func() (sched.Scheduler, error)
	buildWith func(*sharedWorkload) (sched.Scheduler, error)
}

// runKey is the result-memo key of one (scenario, scheduler) run.
func runKey(sc scenario, sb schedBuilder) string {
	return fmt.Sprintf("%s|%s|cdf=%v", sb.key, sc.workloadKey(), sc.recordCDF)
}

// workloadKey identifies the scenario's workload. It deliberately omits
// recordCDF — recording per-user samples changes what a run collects, not
// the demand or the channel, so CDF and non-CDF runs share one workload.
// What else shapes generation (the seed, the signal period, the runner's
// shape) is a constant of the Runner, so (users, avgSize) identifies the
// workload completely.
func (s scenario) workloadKey() string {
	return fmt.Sprintf("n=%d|mb=%g", s.users, s.avgSizeMB)
}

// run executes (or recalls) one simulation. Concurrent callers asking
// for the same key block until the first caller's simulation finishes.
func (r *Runner) run(sc scenario, sb schedBuilder) (*cell.Result, error) {
	return r.results.get(runKey(sc, sb), func() (*cell.Result, error) { return r.simulate(sc, sb) })
}

// workloadFor returns the scenario's shared workload, generating and
// compiling it on first request.
func (r *Runner) workloadFor(sc scenario) (*sharedWorkload, error) {
	return r.workloads.get(sc.workloadKey(), func() (*sharedWorkload, error) { return r.buildWorkload(sc) })
}

// buildWorkload generates and link-compiles one scenario workload, whose
// sessions concurrent simulators share: the table samples them. Above
// cell.DefaultLinkTableMaxRows rows each run samples them in its own link
// window, so the one memo left, VBR rate draws, is drawn to the horizon
// here, where no run reads it yet.
func (r *Runner) buildWorkload(sc scenario) (*sharedWorkload, error) {
	wl, err := workload.Generate(r.workload(sc), rng.New(r.opts.Seed))
	if err != nil {
		return nil, err
	}
	sw := &sharedWorkload{sessions: wl}
	if int64(len(wl))*int64(r.opts.Cell.MaxSlots) <= cell.DefaultLinkTableMaxRows {
		if sw.link, err = cell.CompileLink(r.opts.Cell, wl); err != nil {
			return nil, err
		}
		return sw, nil
	}
	workload.PrewarmAll(r.opts.Cell.Workers, wl, r.opts.Cell.MaxSlots)
	return sw, nil
}

// LinkFillStats reports how much of the scenarios' link tables the runs so
// far have filled: filled is Σ users × FilledSlots over the compiled
// tables, horizon Σ users × Slots, the rows an eager fill would have
// written.
func (r *Runner) LinkFillStats() (filled, horizon int64) {
	for _, sw := range r.workloads.snapshot() {
		if lt := sw.link; lt != nil {
			filled += int64(lt.Users()) * int64(lt.FilledSlots())
			horizon += int64(lt.Users()) * int64(lt.Slots())
		}
	}
	return filled, horizon
}

// simulate performs the actual run (no result memo; the scenario's
// workload and link table come from the shared workload memo). Only
// recordCDF runs keep series: no figure reads a plain run's.
func (r *Runner) simulate(sc scenario, sb schedBuilder) (*cell.Result, error) {
	cfg := r.opts.Cell
	cfg.Record = cell.RecordTotals
	if sc.recordCDF {
		cfg.Record = cell.RecordUserSlots
	}
	sw, err := r.workloadFor(sc)
	if err != nil {
		return nil, err
	}
	cfg.Link = sw.link
	var s sched.Scheduler
	if sb.buildWith != nil {
		s, err = sb.buildWith(sw)
	} else {
		s, err = sb.build()
	}
	if err != nil {
		return nil, err
	}
	sim, err := cell.New(cfg, sw.sessions, s)
	if err != nil {
		return nil, err
	}
	return sim.RunCtx(r.runContext())
}

func (r *Runner) defaultRun(sc scenario) (*cell.Result, error) {
	return r.run(sc, baselineBuilder("default"))
}

// rtmaBuilder returns the builder for RTMA at one alpha over the scenario,
// keyed by alpha, and the admission threshold φ (dBm) it derives: its
// budget Φ = alpha·E_Default comes from the scenario's plain
// (non-recording) Default run.
func (r *Runner) rtmaBuilder(sc scenario, alpha float64) (schedBuilder, float64, error) {
	def, err := r.defaultRun(scenario{users: sc.users, avgSizeMB: sc.avgSizeMB})
	if err != nil {
		return schedBuilder{}, 0, err
	}
	budget, err := sched.BudgetForAlpha(def.TransEnergyPerActiveSlot(), alpha)
	if err != nil {
		return schedBuilder{}, 0, err
	}
	cfg := sched.RTMAConfig{Budget: budget, Radio: r.opts.Cell.Radio, RRC: r.opts.Cell.RRC}
	rt, err := sched.NewRTMA(cfg)
	if err != nil {
		return schedBuilder{}, 0, err
	}
	return schedBuilder{
		key:   fmt.Sprintf("rtma(a=%g)", alpha),
		build: func() (sched.Scheduler, error) { return sched.NewRTMA(cfg) },
	}, float64(rt.Threshold()), nil
}

// emaRunWithV runs EMA at one Lyapunov weight.
func (r *Runner) emaRunWithV(sc scenario, v float64) (*cell.Result, error) {
	return r.run(sc, schedBuilder{
		key: fmt.Sprintf("ema(v=%.6g)", v),
		build: func() (sched.Scheduler, error) {
			return sched.NewEMA(sched.EMAConfig{V: v, RRC: r.opts.Cell.RRC})
		},
	})
}

// calibrateV finds the largest V whose measured PC stays within omega
// (sched.CalibrateV), every probe a memoized EMA run.
func (r *Runner) calibrateV(sc scenario, omega units.Seconds) (float64, error) {
	return sched.CalibrateV(r.opts.CalibrationSteps, omega, func(v float64) (units.Seconds, error) {
		res, err := r.emaRunWithV(sc, v)
		if err != nil {
			return 0, err
		}
		return res.PC(), nil
	})
}

// baselineBuilder returns the builder of the parameter-free scheduler
// sched.ByName builds as name (Default and the comparison baselines); the
// name is its cache key.
func baselineBuilder(name string) schedBuilder {
	return schedBuilder{key: name, build: func() (sched.Scheduler, error) {
		return sched.ByName(name, sched.Params{})
	}}
}

// cdfSeries converts a sample into CDF curve points.
func cdfSeries(label string, sample []float64, points int) (Series, error) {
	c, err := metrics.NewCDF(sample)
	if err != nil {
		return Series{}, fmt.Errorf("experiments: %s: %w", label, err)
	}
	pts, err := c.Points(points)
	if err != nil {
		return Series{}, err
	}
	s := Series{Label: label, X: make([]float64, len(pts)), Y: make([]float64, len(pts))}
	for i, p := range pts {
		s.X[i] = p.X
		s.Y[i] = p.P
	}
	return s, nil
}

// fairnessSamples extracts the per-slot Jain fairness series of a run.
func fairnessSamples(res *cell.Result) []float64 {
	out := make([]float64, len(res.PerSlot))
	for i, st := range res.PerSlot {
		out[i] = st.Fairness
	}
	return out
}

// perSlotTotalEnergyJ returns the per-slot total energy across users in
// joules (Fig. 7's sample).
func perSlotTotalEnergyJ(res *cell.Result) []float64 {
	out := make([]float64, len(res.PerSlot))
	for i, st := range res.PerSlot {
		out[i] = float64(st.Energy) / 1000
	}
	return out
}
