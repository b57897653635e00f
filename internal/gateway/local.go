package gateway

import (
	"fmt"
	"io"
	"sync"

	"jointstream/internal/signal"
	"jointstream/internal/units"
)

// LocalEndpoint is an in-memory Endpoint for tests and examples: reports
// follow a signal.Trace advanced by the caller, and delivered bytes are
// counted (and optionally retained).
type LocalEndpoint struct {
	mu        sync.Mutex
	trace     signal.Trace
	rate      units.KBps
	slot      int
	received  int64
	retain    bool
	payload   []byte
	connected bool
}

// NewLocalEndpoint builds an endpoint whose RSSI follows trace and whose
// required rate is fixed. retain keeps delivered payloads in memory for
// inspection.
func NewLocalEndpoint(trace signal.Trace, rate units.KBps, retain bool) (*LocalEndpoint, error) {
	if trace == nil {
		return nil, fmt.Errorf("gateway: nil trace")
	}
	if rate <= 0 {
		return nil, fmt.Errorf("gateway: non-positive rate %v", rate)
	}
	return &LocalEndpoint{trace: trace, rate: rate, retain: retain, connected: true}, nil
}

// Advance moves the endpoint's channel to the next slot.
func (e *LocalEndpoint) Advance() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.slot++
}

// Report implements Endpoint.
func (e *LocalEndpoint) Report() (Report, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.connected {
		return Report{}, false
	}
	return Report{Sig: e.trace.At(e.slot), Rate: e.rate}, true
}

// Deliver implements Endpoint.
func (e *LocalEndpoint) Deliver(p []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.connected {
		return fatal(fmt.Errorf("gateway: endpoint disconnected"))
	}
	e.received += int64(len(p))
	if e.retain {
		e.payload = append(e.payload, p...)
	}
	return nil
}

// ReceivedBytes returns the total bytes delivered so far.
func (e *LocalEndpoint) ReceivedBytes() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.received
}

// Payload returns the retained delivered bytes (nil unless retain was set).
func (e *LocalEndpoint) Payload() []byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	cp := make([]byte, len(e.payload))
	copy(cp, e.payload)
	return cp
}

// pattern is a whole number of periods of PatternSource's byte stream
// 0, 1, …, 255, 0, …, so a Read is a few copies instead of a byte loop.
var pattern = func() (t [8192]byte) {
	for i := range t {
		t[i] = byte(i)
	}
	return t
}()

// PatternSource yields a deterministic byte pattern of a fixed total size,
// emulating a video file fetched from the origin server.
type PatternSource struct {
	remaining int64
	next      byte
}

// NewPatternSource builds a source of size KB of patterned data.
func NewPatternSource(size units.KB) (*PatternSource, error) {
	if size <= 0 {
		return nil, fmt.Errorf("gateway: non-positive source size %v", size)
	}
	return &PatternSource{remaining: int64(float64(size) * 1000)}, nil
}

// Read implements Source (io.Reader semantics).
func (s *PatternSource) Read(p []byte) (int, error) {
	if s.remaining == 0 {
		return 0, io.EOF
	}
	n := len(p)
	if int64(n) > s.remaining {
		n = int(s.remaining)
	}
	for done := 0; done < n; {
		c := copy(p[done:n], pattern[s.next:])
		done += c
		s.next += byte(c)
	}
	s.remaining -= int64(n)
	if s.remaining == 0 {
		return n, io.EOF
	}
	return n, nil
}

// Verify checks that a delivered payload matches the pattern a
// PatternSource of at least len(payload) bytes would have produced,
// confirming end-to-end integrity through the gateway.
func Verify(payload []byte) error {
	var want byte
	for i, b := range payload {
		if b != want {
			return fmt.Errorf("gateway: payload corrupt at byte %d: got %d want %d", i, b, want)
		}
		want++
	}
	return nil
}
