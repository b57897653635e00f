package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"jointstream/internal/gateway"
	"jointstream/internal/sched"
)

// regionSpan names the span the benchmark puts around a timed region; the
// self times of the spans below it add up to its duration.
const regionSpan = "bench.region"

// sampleOneIn is how sparsely the hottest boundaries are decorated: calls
// that take tens of nanoseconds (Endpoint.Report, a 40-user Allocate) cost
// as much as the clock reads around them, so only every sixteenth gateway
// session and fleet cell carries a decorator and its spans count sixteen-fold.
const sampleOneIn = 16

// span is one timed call into a layer. Times are nanoseconds since the
// tracer was made; parent is the index of the enclosing span, -1 at the top.
type span struct {
	name       int32
	parent     int32
	start, end int64
}

// tracer keeps spans in a buffer allocated before the timed region and
// writes them out when the benchmark ends. Spans of the driver goroutine
// nest (begin/end); decorators called from any goroutine record finished
// calls as leaves of the driver's innermost open span. A nil tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0      time.Time
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
	cur     atomic.Int32
	names   []string
	weights []float64
}

func newTracer(capacity int) *tracer {
	t := &tracer{t0: time.Now(), spans: make([]span, capacity)}
	t.cur.Store(-1)
	return t
}

// name registers a span name once, before the timed region; weight is how
// many calls each recorded span stands for.
func (t *tracer) name(name string, weight float64) int32 {
	if t == nil {
		return 0
	}
	for i, n := range t.names {
		if n == name {
			return int32(i)
		}
	}
	t.names = append(t.names, name)
	t.weights = append(t.weights, weight)
	return int32(len(t.names) - 1)
}

func (t *tracer) claim() int32 {
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	return int32(i)
}

// begin opens a span on the driver goroutine.
func (t *tracer) begin(name int32) int32 {
	if t == nil {
		return -1
	}
	id := t.claim()
	if id < 0 {
		return -1
	}
	t.spans[id] = span{name: name, parent: t.cur.Load(), start: int64(time.Since(t.t0))}
	t.cur.Store(id)
	return id
}

// end closes the span begin returned and gives its duration.
func (t *tracer) end(id int32) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	s := &t.spans[id]
	s.end = int64(time.Since(t.t0))
	t.cur.Store(s.parent)
	return time.Duration(s.end - s.start)
}

// now reads the clock for a leaf, and skips the read in an untraced run.
func (t *tracer) now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// leaf records a call that started at start and has just returned.
func (t *tracer) leaf(name int32, start time.Time) {
	if t == nil {
		return
	}
	end := time.Now()
	if id := t.claim(); id >= 0 {
		t.spans[id] = span{name: name, parent: t.cur.Load(),
			start: int64(start.Sub(t.t0)), end: int64(end.Sub(t.t0))}
	}
}

// rename relabels a span once it is known what it covered.
func (t *tracer) rename(id, name int32) {
	if t != nil && id >= 0 {
		t.spans[id].name = name
	}
}

func (t *tracer) recorded() []span {
	return t.spans[:min(t.n.Load(), int64(len(t.spans)))]
}

// durations returns the duration in nanoseconds of every span of one name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.recorded() {
		if t.names[s.name] == name {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// layerTime is what one span name cost: calls (recorded spans times their
// weight), their summed duration, and the self time — the duration minus the
// part of it covered by child spans.
type layerTime struct {
	Calls   float64 `json:"calls"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// layers computes per-name totals and self times. Children of one name may
// overlap (worker goroutines), so their cover is the union of their
// intervals, scaled by the name's weight and capped at the parent's length.
// regionMS is the summed length of the timed regions and regionSelfMS the
// self time found inside them; the two agree when no span was dropped.
func (t *tracer) layers() (byName map[string]*layerTime, regionMS, regionSelfMS float64) {
	spans := t.recorded()
	order := make([]int32, 0, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			order = append(order, int32(i))
		}
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := spans[order[a]], spans[order[b]]
		if x.parent != y.parent {
			return x.parent < y.parent
		}
		if x.name != y.name {
			return x.name < y.name
		}
		return x.start < y.start
	})
	cover := make([]float64, len(spans))
	for i := 0; i < len(order); {
		first := spans[order[i]]
		p := spans[first.parent]
		union, hi := int64(0), p.start
		for ; i < len(order); i++ {
			c := spans[order[i]]
			if c.parent != first.parent || c.name != first.name {
				break
			}
			lo, end := max(c.start, hi), min(c.end, p.end)
			if end > lo {
				union += end - lo
				hi = end
			}
		}
		cover[first.parent] += float64(union) * t.weights[first.name]
	}
	byName = map[string]*layerTime{}
	inRegion := make([]bool, len(spans))
	region := t.name(regionSpan, 1)
	for i, s := range spans {
		dur := float64(s.end - s.start)
		self := max(dur-cover[i], 0)
		w := t.weights[s.name]
		l := byName[t.names[s.name]]
		if l == nil {
			l = &layerTime{}
			byName[t.names[s.name]] = l
		}
		l.Calls += w
		l.TotalMS += w * dur / 1e6
		l.SelfMS += w * self / 1e6
		// A parent is recorded before its children, so its flag is set.
		inRegion[i] = s.name == region || (s.parent >= 0 && inRegion[s.parent])
		if s.name == region {
			regionMS += dur / 1e6
		}
		if inRegion[i] {
			regionSelfMS += w * self / 1e6
		}
	}
	return byName, regionMS, regionSelfMS
}

// traceFile is the layout of out/trace_<workload>.json.
type traceFile struct {
	Workload string                `json:"workload"`
	Seed     uint64                `json:"seed"`
	Stamp    provenance            `json:"stamp"`
	Dropped  int64                 `json:"dropped"`
	Omitted  int                   `json:"omitted"`
	Layers   map[string]*layerTime `json:"layers"`
	Spans    []traceSpan           `json:"spans"`
}

type traceSpan struct {
	ID      int     `json:"id"`
	Parent  int32   `json:"parent"`
	Name    string  `json:"name"`
	StartNS int64   `json:"start_ns"`
	EndNS   int64   `json:"end_ns"`
	Weight  float64 `json:"weight,omitempty"`
}

// traceFileSpans caps the spans of one name a trace file lists, which keeps
// the largest file under 10 MB; the summary in "layers" covers every span.
const traceFileSpans = 20_000

// write stores the per-layer summary (what layers returned) and the spans
// under dir.
func (t *tracer) write(dir, workload string, seed uint64, byName map[string]*layerTime) (string, error) {
	f := traceFile{Workload: workload, Seed: seed, Stamp: stamp(), Dropped: t.dropped.Load(), Layers: byName}
	listed := make([]int, len(t.names))
	for i, s := range t.recorded() {
		if listed[s.name]++; listed[s.name] > traceFileSpans {
			f.Omitted++
			continue
		}
		ts := traceSpan{ID: i, Parent: s.parent, Name: t.names[s.name], StartNS: s.start, EndNS: s.end}
		if w := t.weights[s.name]; w != 1 {
			ts.Weight = w
		}
		f.Spans = append(f.Spans, ts)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(dir, "trace_"+workload+".json")
	b, err := json.Marshal(f)
	if err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	return path, nil
}

// tracedSched times every Allocate of the scheduler it wraps.
type tracedSched struct {
	sched.Scheduler
	tr   *tracer
	name int32
}

func (s tracedSched) Allocate(slot *sched.Slot, alloc []int) {
	t := time.Now()
	s.Scheduler.Allocate(slot, alloc)
	s.tr.leaf(s.name, t)
}

// traceSched wraps s when tracing is on.
func traceSched(tr *tracer, s sched.Scheduler) sched.Scheduler {
	if tr == nil {
		return s
	}
	return tracedSched{Scheduler: s, tr: tr, name: tr.name("sched.Allocate", 1)}
}

// tracedEndpoint times the gateway's calls out to a device.
type tracedEndpoint struct {
	gateway.Endpoint
	tr              *tracer
	report, deliver int32
}

func (e tracedEndpoint) Report() (gateway.Report, bool) {
	t := time.Now()
	r, ok := e.Endpoint.Report()
	e.tr.leaf(e.report, t)
	return r, ok
}

func (e tracedEndpoint) Deliver(p []byte) error {
	t := time.Now()
	err := e.Endpoint.Deliver(p)
	e.tr.leaf(e.deliver, t)
	return err
}

// tracedSource times the gateway's reads from the origin.
type tracedSource struct {
	gateway.Source
	tr   *tracer
	read int32
}

func (s tracedSource) Read(p []byte) (int, error) {
	t := time.Now()
	n, err := s.Source.Read(p)
	s.tr.leaf(s.read, t)
	return n, err
}
