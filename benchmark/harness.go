package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// median returns the middle of xs (the mean of the two middle values for an
// even count) without reordering it; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quantile returns the q-quantile of xs by nearest rank; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, and 0 when b is 0: a layer that did no work reports 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// checker counts the correctness checks of a run: each check is one
// operation attempted, and a false one an operation failed.
type checker struct {
	attempted, failed int
	notes             []string
}

// ok records one check and keeps the first few failure messages.
func (c *checker) ok(cond bool, format string, args ...any) bool {
	c.attempted++
	if !cond {
		c.failed++
		if len(c.notes) < 8 {
			c.notes = append(c.notes, fmt.Sprintf(format, args...))
		}
	}
	return cond
}

// region measures one timed region from outside: wall time, the heap
// high-water and goroutine peak seen by a background sampler, and the
// runtime's allocation and collector counters across it.
type region struct {
	t0      time.Time
	m0      runtime.MemStats
	stop    chan struct{}
	sampler sync.WaitGroup

	wall       time.Duration
	peakHeapMB float64
	goroutines int
	mallocs    float64
	allocMB    float64
	gcPauseMS  float64
	gcCycles   float64
}

// heapSamplePeriod keeps the sampler under a thousandth of one core: a
// runtime/metrics read takes a few microseconds and stops nothing.
const heapSamplePeriod = 2 * time.Millisecond

// beginRegion collects garbage left by set-up, so that every repetition
// starts from the same heap, and starts the clock.
func beginRegion() *region {
	r := &region{stop: make(chan struct{})}
	runtime.GC()
	runtime.ReadMemStats(&r.m0)
	r.sample(make([]metrics.Sample, 2))
	r.sampler.Add(1)
	go func() {
		defer r.sampler.Done()
		s := make([]metrics.Sample, 2)
		tick := time.NewTicker(heapSamplePeriod)
		defer tick.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-tick.C:
				r.sample(s)
			}
		}
	}()
	r.t0 = time.Now()
	return r
}

// sample reads what runtime.MemStats calls HeapInuse: bytes in live and
// not-yet-swept objects plus the unused part of their spans.
func (r *region) sample(s []metrics.Sample) {
	s[0].Name = "/memory/classes/heap/objects:bytes"
	s[1].Name = "/memory/classes/heap/unused:bytes"
	metrics.Read(s)
	mb := float64(s[0].Value.Uint64()+s[1].Value.Uint64()) / (1 << 20)
	r.peakHeapMB = max(r.peakHeapMB, mb)
	r.goroutines = max(r.goroutines, runtime.NumGoroutine())
}

func (r *region) end() {
	r.wall = time.Since(r.t0)
	close(r.stop)
	r.sampler.Wait()
	r.sample(make([]metrics.Sample, 2))
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	r.mallocs = float64(m1.Mallocs - r.m0.Mallocs)
	r.allocMB = float64(m1.TotalAlloc-r.m0.TotalAlloc) / (1 << 20)
	r.gcPauseMS = float64(m1.PauseTotalNs-r.m0.PauseTotalNs) / 1e6
	r.gcCycles = float64(m1.NumGC - r.m0.NumGC)
}

// provenance stamps every output: where and on what the numbers were taken.
type provenance struct {
	Commit     string `json:"commit"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func stamp() provenance {
	return provenance{
		Commit:     gitHead(".git"),
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
	}
}

// gitHead reads the checked-out commit from the files of a .git directory,
// starting no process; a checkout that is not a repository is "unknown".
func gitHead(dir string) string {
	head, err := os.ReadFile(dir + "/HEAD")
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(h, "ref: "); ok {
		b, err := os.ReadFile(dir + "/" + ref)
		if err != nil {
			return "unknown"
		}
		return strings.TrimSpace(string(b))
	}
	return h
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
