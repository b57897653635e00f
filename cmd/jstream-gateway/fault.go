package main

// This file is the chaos scenario's seeded, deterministic fault injection.
// A faultPlan derives every fault decision from (Seed, user id, call
// index) through the repo's SplitMix64 generator, so the same plan over
// the same traffic produces the same fault sequence on every run — chaos
// runs are replayable and their rows comparable byte for byte.
//
// Faults are composable wrappers: wrapEndpoint and wrapSource decorate a
// gateway.Endpoint / gateway.Source with the plan's endpoint and source
// faults. A zero plan injects nothing and returns its inputs unchanged, so
// the wrapped system is bit-identical to the unwrapped baseline — the
// scenario relies on this to share one code path for faulted and clean
// runs.

import (
	"errors"
	"io"
	"sync"
	"time"

	"jointstream/internal/gateway"
	"jointstream/internal/rng"
)

// Stream constants decorrelate the per-user fault streams (delivery,
// report, read) from one another and from the workload generators.
const (
	userMix    = 0xD1B54A32D192ED03
	deliverMix = 0x2545F4914F6CDD1D
	reportMix  = 0x9E3779B97F4A7C15
	readMix    = 0xBF58476D1CE4E5B9
)

// endpointPlan schedules faults on the device side of the serving path.
type endpointPlan struct {
	// StallProb is the per-delivery probability that Deliver blocks for
	// StallFor before succeeding — the slow-reader case the gateway's
	// slot deadline must absorb.
	StallProb float64
	// StallFor is the stall duration (required when StallProb > 0).
	StallFor time.Duration
	// DropProb is the per-delivery probability that Deliver fails with a
	// transient error (the frame is not absorbed; the gateway re-queues
	// and retries under backoff).
	DropProb float64
	// FlapProb is the per-report probability that the endpoint starts a
	// connectivity flap: this report and the next FlapSlots-1 are lost
	// (ok=false), then reports recover — exercising the stale-report
	// grace window and reattach path.
	FlapProb float64
	// FlapSlots is the length of one flap in reports (default 1).
	FlapSlots int
	// ReportLossProb is the per-report probability of one isolated lost
	// report.
	ReportLossProb float64
}

// zero reports whether the plan injects nothing.
func (p endpointPlan) zero() bool {
	return p.StallProb <= 0 && p.DropProb <= 0 && p.FlapProb <= 0 && p.ReportLossProb <= 0
}

// sourcePlan schedules faults on the origin side of the serving path.
type sourcePlan struct {
	// SlowReadProb is the per-read probability that the origin returns at
	// most SlowReadMax bytes regardless of how much was asked for.
	SlowReadProb float64
	// SlowReadMax caps a slow read's size in bytes (default 1).
	SlowReadMax int
	// EOFEarlyAfter, when positive, truncates the stream: reads past this
	// many total bytes return io.EOF, simulating an origin that ends the
	// video early. The gateway treats the short stream as the whole
	// video.
	EOFEarlyAfter int64
}

// zero reports whether the plan injects nothing.
func (p sourcePlan) zero() bool {
	return p.SlowReadProb <= 0 && p.EOFEarlyAfter <= 0
}

// faultPlan is one deterministic fault schedule.
type faultPlan struct {
	// Seed roots every fault decision; two runs of the same plan over the
	// same traffic make identical decisions.
	Seed     uint64
	Endpoint endpointPlan
	Source   sourcePlan
}

// validate checks the plan.
func (p faultPlan) validate() error {
	if p.Endpoint.StallProb > 0 && p.Endpoint.StallFor <= 0 {
		return errors.New("fault: StallProb set without StallFor")
	}
	for _, pr := range []float64{
		p.Endpoint.StallProb, p.Endpoint.DropProb, p.Endpoint.FlapProb,
		p.Endpoint.ReportLossProb, p.Source.SlowReadProb,
	} {
		if pr < 0 || pr > 1 {
			return errors.New("fault: probability outside [0, 1]")
		}
	}
	return nil
}

// draw returns the deterministic uniform [0,1) variate for call n of the
// given per-user stream: a pure function of its inputs, so wrappers need
// no generator state beyond a call counter.
func draw(seed, stream uint64, n int) float64 {
	return rng.New(seed ^ stream ^ uint64(n)*userMix).Float64()
}

// userSeed derives the per-user seed, decorrelating users from one
// another.
func (p faultPlan) userSeed(id int) uint64 {
	return p.Seed ^ uint64(id+1)*deliverMix
}

// wrapEndpoint decorates ep with the plan's endpoint faults for user id.
// A plan without endpoint faults returns ep itself.
func (p faultPlan) wrapEndpoint(id int, ep gateway.Endpoint) gateway.Endpoint {
	if p.Endpoint.zero() {
		return ep
	}
	flapSlots := p.Endpoint.FlapSlots
	if flapSlots <= 0 {
		flapSlots = 1
	}
	return &faultEndpoint{inner: ep, plan: p.Endpoint, flapSlots: flapSlots, seed: p.userSeed(id)}
}

// wrapSource decorates src with the plan's source faults for user id.
// A plan without source faults returns src itself.
func (p faultPlan) wrapSource(id int, src gateway.Source) gateway.Source {
	if p.Source.zero() {
		return src
	}
	max := p.Source.SlowReadMax
	if max <= 0 {
		max = 1
	}
	return &faultSource{inner: src, plan: p.Source, slowMax: max, seed: p.userSeed(id) ^ readMix}
}

// faultEndpoint injects the endpointPlan's faults around an inner
// endpoint. Decisions are functions of (seed, call index) only, so the
// fault sequence is independent of timing.
type faultEndpoint struct {
	inner     gateway.Endpoint
	plan      endpointPlan
	flapSlots int
	seed      uint64

	mu       sync.Mutex
	deliverN int
	reportN  int
	flapLeft int
}

// Report implements gateway.Endpoint.
func (e *faultEndpoint) Report() (gateway.Report, bool) {
	e.mu.Lock()
	n := e.reportN
	e.reportN++
	if e.flapLeft > 0 {
		e.flapLeft--
		e.mu.Unlock()
		return gateway.Report{}, false
	}
	if e.plan.FlapProb > 0 && draw(e.seed, reportMix, n) < e.plan.FlapProb {
		e.flapLeft = e.flapSlots - 1
		e.mu.Unlock()
		return gateway.Report{}, false
	}
	if e.plan.ReportLossProb > 0 && draw(e.seed, reportMix^userMix, n) < e.plan.ReportLossProb {
		e.mu.Unlock()
		return gateway.Report{}, false
	}
	e.mu.Unlock()
	return e.inner.Report()
}

// Deliver implements gateway.Endpoint.
func (e *faultEndpoint) Deliver(p []byte) error {
	e.mu.Lock()
	n := e.deliverN
	e.deliverN++
	stall := e.plan.StallProb > 0 && draw(e.seed, deliverMix, n) < e.plan.StallProb
	drop := e.plan.DropProb > 0 && draw(e.seed, deliverMix^userMix, n) < e.plan.DropProb
	e.mu.Unlock()
	if stall {
		time.Sleep(e.plan.StallFor)
	}
	if drop {
		return gateway.Transient(errors.New("fault: injected delivery drop"))
	}
	return e.inner.Deliver(p)
}

// faultSource injects the sourcePlan's faults around an inner source.
type faultSource struct {
	inner   gateway.Source
	plan    sourcePlan
	slowMax int
	seed    uint64

	mu    sync.Mutex
	readN int
	total int64
}

// Read implements gateway.Source.
func (s *faultSource) Read(p []byte) (int, error) {
	s.mu.Lock()
	n := s.readN
	s.readN++
	if s.plan.EOFEarlyAfter > 0 && s.total >= s.plan.EOFEarlyAfter {
		s.mu.Unlock()
		return 0, io.EOF
	}
	limit := len(p)
	if s.plan.SlowReadProb > 0 && draw(s.seed, readMix, n) < s.plan.SlowReadProb && limit > s.slowMax {
		limit = s.slowMax
	}
	if s.plan.EOFEarlyAfter > 0 {
		if rem := s.plan.EOFEarlyAfter - s.total; int64(limit) > rem {
			limit = int(rem)
		}
	}
	s.mu.Unlock()

	got, err := s.inner.Read(p[:limit])

	s.mu.Lock()
	s.total += int64(got)
	early := s.plan.EOFEarlyAfter > 0 && s.total >= s.plan.EOFEarlyAfter
	s.mu.Unlock()
	if err == nil && early {
		err = io.EOF
	}
	return got, err
}
