package gateway

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"jointstream/internal/sched"
)

// scriptSource yields PatternSource's byte stream in scripted chunks: a
// Read returns at most what is left of the current chunk, a zero chunk
// answers one Read with (0, nil), and the Read that ends the last chunk
// carries io.EOF with its data. What a fill ends with therefore does not
// depend on how the fill splits its request.
type scriptSource struct {
	chunks []int
	next   byte
}

func (s *scriptSource) Read(p []byte) (int, error) {
	if len(s.chunks) == 0 {
		return 0, io.EOF
	}
	if s.chunks[0] == 0 {
		s.chunks = s.chunks[1:]
		return 0, nil
	}
	n := min(len(p), s.chunks[0])
	for i := range p[:n] {
		p[i] = s.next
		s.next++
	}
	if s.chunks[0] -= n; s.chunks[0] == 0 {
		if s.chunks = s.chunks[1:]; len(s.chunks) == 0 {
			return n, io.EOF
		}
	}
	return n, nil
}

// fifoModel is the naive receiver queue: one []byte, refilled by appending
// a single Read of everything missing, consumed from the front.
type fifoModel struct {
	src      scriptSource
	capBytes int
	q        []byte
	done     bool
}

func (m *fifoModel) fill() {
	for !m.done && len(m.q) < m.capBytes {
		p := make([]byte, m.capBytes-len(m.q))
		n, err := m.src.Read(p)
		m.q = append(m.q, p[:n]...)
		if err != nil {
			m.done = true
		}
		if n == 0 {
			return
		}
	}
}

// queueStep is one slot of a scripted session.
type queueStep struct {
	grant int  // bytes granted, clipped to the queue
	fail  bool // the delivery fails transiently
	// late holds an async delivery's outcome until after the next slot's
	// fill, as when it outlives its slot's deadline; the session sits that
	// slot out.
	late bool
}

// queueRun is what a scripted session did: the gateway and session it ran
// on, the bytes it delivered, and how often a grant or a put-back spanned
// the end of the ring.
type queueRun struct {
	g                        *Gateway
	u                        *user
	delivered                int
	wrappedGrants, wrappedPB int
}

// runReceiverQueue drives one session's receiver queue through the
// gateway's own fill, grant and completion code — the steps Step takes,
// in Step's order — beside fifoModel, and checks after every step that
// the queue holds exactly the model's bytes and that both delivered the
// same stream, a valid PatternSource prefix.
func runReceiverQueue(t *testing.T, capBytes int, chunks []int, async bool, steps []queueStep) queueRun {
	t.Helper()
	var r queueRun
	cfg := testConfig()
	cfg.Policy = Policy{BreakerTrips: 1 << 30}
	g, err := New(cfg, sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	g.capBytes = capBytes // QueueCap in bytes, exactly
	u := &user{src: &scriptSource{chunks: append([]int(nil), chunks...)}}
	m := &fifoModel{src: scriptSource{chunks: append([]int(nil), chunks...)}, capBytes: capBytes}
	var got, want, pending []byte
	check := func(slot int, what string) {
		t.Helper()
		if u.queued() != len(m.q) || u.srcDone != m.done {
			t.Fatalf("slot %d, %s: queued %d srcDone %v, model %d %v", slot, what, u.queued(), u.srcDone, len(m.q), m.done)
		}
		ring := make([]byte, u.queued())
		for i := range ring {
			ring[i] = u.buf[(u.head+i)%len(u.buf)]
		}
		if !bytes.Equal(ring, m.q) {
			t.Fatalf("slot %d, %s: queue bytes differ from the model's", slot, what)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("slot %d, %s: delivered %d bytes, model %d, or different ones", slot, what, len(got), len(want))
		}
		if err := Verify(got); err != nil {
			t.Fatalf("slot %d, %s: %v", slot, what, err)
		}
	}
	// complete lands the async delivery in flight, through completeDelivery.
	complete := func(fail bool) {
		var err error
		if fail {
			if len(u.snap) > u.head && len(u.snap)+u.queued() <= len(u.buf) {
				r.wrappedPB++
			}
			err = Transient(errors.New("scripted drop"))
			m.q = append(append([]byte(nil), pending...), m.q...)
		} else {
			got = append(got, u.snap...)
			want = append(want, pending...)
		}
		g.completeDelivery(u, deliveryResult{job: deliveryJob{payload: u.snap, rate: 400}, err: err})
		pending = nil
	}
	lateFail := false
	for slot, s := range steps {
		g.fill(u)
		m.fill()
		check(slot, "fill")
		if u.inFlight {
			complete(lateFail)
			check(slot, "late completion")
			continue
		}
		n := min(s.grant, u.queued())
		if u.head+n > len(u.buf) {
			r.wrappedGrants++
		}
		if async {
			pending = append([]byte(nil), m.q[:n]...)
			m.q = m.q[n:]
			u.takeSnap(n)
			u.inFlight = true
			if s.late {
				lateFail = s.fail
				check(slot, "async grant")
				continue
			}
			complete(s.fail)
			check(slot, "async completion")
			continue
		}
		p := u.peek(n, &g.scratch)
		if len(p) != n {
			t.Fatalf("slot %d: a grant of %d bytes peeked as %d", slot, n, len(p))
		}
		if !s.fail {
			got = append(got, p...)
			want = append(want, m.q[:n]...)
			m.q = m.q[n:]
			u.consume(n)
		}
		check(slot, "sync delivery")
	}
	r.g, r.u, r.delivered = g, u, len(got)
	return r
}

// steady is n slots granting grant bytes each, every delivery landing.
func steady(n, grant int) []queueStep {
	s := make([]queueStep, n)
	for i := range s {
		s[i].grant = grant
	}
	return s
}

// TestReceiverQueueMatchesFIFO runs scripted sessions through the ring
// against the naive FIFO: short, zero and EOF-with-data reads, grants that
// span the end of the ring in both delivery modes, transient failures, and
// a late async failure whose put-back overflows QueueCap. Each session is
// delivered whole.
func TestReceiverQueueMatchesFIFO(t *testing.T) {
	short := []int{3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3}
	stutter := []int{4, 0, 5, 0, 0, 7, 1, 0, 9, 6, 0, 11, 3, 0, 8}
	failing := []queueStep{{grant: 7}, {grant: 7, fail: true}, {grant: 6, fail: true}, {grant: 7}, {grant: 9, fail: true}}
	cases := []struct {
		name     string
		capBytes int
		chunks   []int
		async    bool
		steps    []queueStep
		// what the script must reach, so it tests what it names
		wrappedPB, grown bool
	}{
		{name: "sync short reads, grants across the wrap", capBytes: 10, chunks: short, steps: steady(20, 7)},
		{name: "async short reads, grants across the wrap", capBytes: 10, chunks: short, async: true, steps: steady(20, 7)},
		{name: "sync zero reads, EOF with data", capBytes: 13, chunks: stutter, steps: steady(30, 5)},
		{name: "async zero reads, EOF with data", capBytes: 13, chunks: stutter, async: true, steps: steady(30, 5)},
		{name: "sync transient failures", capBytes: 10, chunks: short, steps: append(failing, steady(20, 7)...)},
		{name: "async failures put back across the wrap", capBytes: 10, chunks: short, async: true,
			steps: append(failing, steady(20, 7)...), wrappedPB: true},
		{name: "async late failure overflows QueueCap", capBytes: 10, chunks: []int{60}, async: true,
			steps: append([]queueStep{{grant: 3}, {grant: 8, fail: true, late: true}, {}, {grant: 4, fail: true, late: true}, {}}, steady(20, 6)...),
			grown: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := runReceiverQueue(t, c.capBytes, c.chunks, c.async, c.steps)
			total := 0
			for _, n := range c.chunks {
				total += n
			}
			if r.delivered != total || !r.u.srcDone || r.u.queued() != 0 {
				t.Fatalf("delivered %d of %d bytes, srcDone %v, %d queued", r.delivered, total, r.u.srcDone, r.u.queued())
			}
			if r.wrappedGrants == 0 || c.wrappedPB && r.wrappedPB == 0 {
				t.Errorf("%d grants and %d put-backs spanned the wrap", r.wrappedGrants, r.wrappedPB)
			}
			// A ring putBack grew is the session's own: it never reaches
			// the free list.
			if grown := len(r.u.buf) > c.capBytes; grown != c.grown {
				t.Errorf("ring of %d bytes for QueueCap %d", len(r.u.buf), c.capBytes)
			}
			r.g.freeBuf(r.u)
			for _, b := range r.g.freeBufs {
				if len(b) != c.capBytes {
					t.Errorf("free list holds a %d-byte buffer for QueueCap %d", len(b), c.capBytes)
				}
			}
		})
	}
}

// FuzzReceiverQueue drives the ring against the naive FIFO with fuzzed
// queue sizes, read scripts (zero = a Read that returns nothing) and
// slots (grant size, failure, late completion).
func FuzzReceiverQueue(f *testing.F) {
	f.Add(uint8(9), []byte{3, 3, 0, 9, 47, 5, 0, 0, 12}, []byte{28, 29, 31, 30, 0, 24, 27, 26, 25, 28}, false)
	f.Add(uint8(9), []byte{3, 3, 0, 9, 47, 5, 0, 0, 12}, []byte{28, 29, 31, 30, 0, 24, 27, 26, 25, 28}, true)
	f.Add(uint8(0), []byte{1, 0, 1}, []byte{4, 7, 6, 4}, true)
	f.Fuzz(func(t *testing.T, capB uint8, script, ops []byte, async bool) {
		capBytes := 1 + int(capB)%64
		chunks := make([]int, 0, len(script))
		for _, b := range script[:min(len(script), 64)] {
			chunks = append(chunks, int(b)%48)
		}
		steps := make([]queueStep, 0, len(ops))
		for _, b := range ops[:min(len(ops), 256)] {
			steps = append(steps, queueStep{grant: int(b>>2) % (2 * capBytes), fail: b&1 != 0, late: b&2 != 0})
		}
		runReceiverQueue(t, capBytes, chunks, async, steps)
	})
}
