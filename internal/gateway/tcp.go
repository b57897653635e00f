package gateway

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"jointstream/internal/cell"
	"jointstream/internal/units"
)

// This file implements the gateway's wire protocol for real (TCP) clients,
// used by cmd/jstream-gateway and the live examples. The protocol is
// newline-delimited and deliberately minimal:
//
//	client -> gateway:  HELLO <videoKB> <rateKBps>
//	client -> gateway:  SIG <dBm>            (any time; updates the report)
//	gateway -> client:  DATA <n>\n<n raw bytes>
//	gateway -> client:  BUSY <reason>        (admission refused; then close)
//
// The gateway side adapts one connection to the Endpoint interface; the
// client side (Client) performs the handshake, streams RSSI updates and
// consumes DATA frames.

// TCPEndpoint adapts a net.Conn to the Endpoint interface. Reports are
// updated by a background reader consuming SIG lines.
type TCPEndpoint struct {
	mu   sync.Mutex
	conn net.Conn
	sig  units.DBm
	rate units.KBps
	gone bool
	// ioTimeout, when positive, bounds every conn write (and the
	// background reader's waits) so a wedged peer can never hang a
	// Deliver forever: the write deadline surfaces as a transient
	// timeout the gateway's retry policy absorbs.
	ioTimeout time.Duration
}

// Report implements Endpoint.
func (e *TCPEndpoint) Report() (Report, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.gone {
		return Report{}, false
	}
	return Report{Sig: e.sig, Rate: e.rate}, true
}

// Deliver implements Endpoint: one DATA frame per slot grant. Write
// timeouts are returned as-is (the classifier calls them transient and
// the gateway retries); any other write failure marks the client gone.
func (e *TCPEndpoint) Deliver(p []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.gone {
		return fatal(fmt.Errorf("gateway: client gone"))
	}
	if e.ioTimeout > 0 {
		e.conn.SetWriteDeadline(time.Now().Add(e.ioTimeout))
	}
	if _, err := fmt.Fprintf(e.conn, "DATA %d\n", len(p)); err != nil {
		return e.writeErr(err)
	}
	if _, err := e.conn.Write(p); err != nil {
		return e.writeErr(err)
	}
	return nil
}

// writeErr marks the endpoint gone on fatal write failures; timeouts
// leave it attached for the retry path. Callers hold e.mu.
func (e *TCPEndpoint) writeErr(err error) error {
	if classify(err) == fatalError {
		e.gone = true
	}
	return err
}

// markGone flags the endpoint as disconnected.
func (e *TCPEndpoint) markGone() {
	e.mu.Lock()
	e.gone = true
	e.mu.Unlock()
}

// Close hangs up on the client, which the gateway does when it retires a
// session it detached: the client's read ends instead of waiting for
// bytes that will never come. It takes no lock, so a Deliver blocked on
// a wedged peer is released rather than waited for.
func (e *TCPEndpoint) Close() error { return e.conn.Close() }

// setSig updates the reported signal.
func (e *TCPEndpoint) setSig(v units.DBm) {
	e.mu.Lock()
	e.sig = v
	e.mu.Unlock()
}

// Hello is the parsed client handshake.
type Hello struct {
	VideoKB units.KB
	Rate    units.KBps
}

// finite reports whether v is a usable (non-NaN, non-Inf) float.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// parseHello validates a HELLO line. Non-finite parameters (NaN, Inf)
// are rejected: NaN in particular compares false against every bound and
// would otherwise slip through and poison the radio model.
func parseHello(line string) (Hello, error) {
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) != 3 || fields[0] != "HELLO" {
		return Hello{}, fmt.Errorf("gateway: bad handshake %q", strings.TrimSpace(line))
	}
	size, err := strconv.ParseFloat(fields[1], 64)
	if err != nil || !finite(size) || size <= 0 {
		return Hello{}, fmt.Errorf("gateway: bad video size %q", fields[1])
	}
	rate, err := strconv.ParseFloat(fields[2], 64)
	if err != nil || !finite(rate) || rate <= 0 {
		return Hello{}, fmt.Errorf("gateway: bad rate %q", fields[2])
	}
	return Hello{VideoKB: units.KB(size), Rate: units.KBps(rate)}, nil
}

// parseSig parses a SIG line, rejecting malformed and non-finite values.
// ok=false means the line was not an acceptable SIG update (the reader
// ignores it; the protocol tolerates unknown lines).
func parseSig(line string) (units.DBm, bool) {
	f := strings.Fields(strings.TrimSpace(line))
	if len(f) != 2 || f[0] != "SIG" {
		return 0, false
	}
	dbm, err := strconv.ParseFloat(f[1], 64)
	if err != nil || !finite(dbm) {
		return 0, false
	}
	return units.DBm(dbm), true
}

// ConnOptions tunes AttachConnWith.
type ConnOptions struct {
	// InitialSig seeds the report until the first SIG line arrives.
	InitialSig units.DBm
	// IOTimeout, when positive, is applied as a per-operation deadline to
	// the handshake read, every SIG read and every DATA write, so neither
	// the background reader nor the transmitter can hang forever on a
	// wedged peer. A reader deadline expiry (no SIG for IOTimeout) marks
	// the client gone, handing it to the gateway's stale-report policy.
	IOTimeout time.Duration
}

// AttachConnWith performs the HELLO handshake on conn, attaches the
// resulting user to gw with a PatternSource of the requested size, and
// starts a background reader that applies SIG updates until the client
// hangs up. The initial report uses opts.InitialSig until the first SIG
// line arrives.
func AttachConnWith(gw *Gateway, conn net.Conn, opts ConnOptions) (int, error) {
	br := bufio.NewReader(conn)
	if opts.IOTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(opts.IOTimeout))
	}
	line, err := br.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("gateway: handshake read: %w", err)
	}
	hello, err := parseHello(line)
	if err != nil {
		return 0, err
	}
	ep := &TCPEndpoint{conn: conn, sig: opts.InitialSig, rate: hello.Rate, ioTimeout: opts.IOTimeout}
	src, err := NewPatternSource(hello.VideoKB)
	if err != nil {
		return 0, err
	}
	id, err := gw.Attach(ep, src)
	if err != nil {
		// Admission refusals get a protocol-level answer so load
		// generators can tell "come back later" from a broken gateway.
		switch {
		case errors.Is(err, errDraining):
			fmt.Fprintf(conn, "BUSY draining\n")
		case errors.Is(err, cell.ErrOverCapacity):
			fmt.Fprintf(conn, "BUSY over-capacity\n")
		}
		return 0, err
	}
	go func() {
		defer conn.Close()
		for {
			if opts.IOTimeout > 0 {
				conn.SetReadDeadline(time.Now().Add(opts.IOTimeout))
			}
			line, err := br.ReadString('\n')
			if err != nil {
				ep.markGone()
				return
			}
			if dbm, ok := parseSig(line); ok {
				ep.setSig(dbm)
			}
		}
	}()
	return id, nil
}

// Client is the device side of the protocol.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	want int64
	got  int64
}

// DialClient connects to a gateway and performs the handshake for a video
// of the given size and required rate.
func DialClient(addr string, videoKB units.KB, rate units.KBps) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn, videoKB, rate)
}

// NewClient runs the handshake over an existing connection (useful with
// net.Pipe in tests).
func NewClient(conn net.Conn, videoKB units.KB, rate units.KBps) (*Client, error) {
	if videoKB <= 0 || rate <= 0 {
		conn.Close()
		return nil, fmt.Errorf("gateway: invalid client parameters (video %v, rate %v)", videoKB, rate)
	}
	if _, err := fmt.Fprintf(conn, "HELLO %g %g\n", float64(videoKB), float64(rate)); err != nil {
		conn.Close()
		return nil, err
	}
	return &Client{
		conn: conn,
		br:   bufio.NewReader(conn),
		want: int64(float64(videoKB) * 1000),
	}, nil
}

// ReportSignal sends a SIG update.
func (c *Client) ReportSignal(sig units.DBm) error {
	_, err := fmt.Fprintf(c.conn, "SIG %.1f\n", float64(sig))
	return err
}

// ErrBusy is returned by ReadFrame when the gateway answered the
// handshake with a BUSY line: the session was refused at admission
// (over capacity or draining), not dropped by a fault.
var ErrBusy = errors.New("gateway: busy, session refused at admission")

// ReadFrame consumes the next DATA frame, returning its payload length.
// io.EOF is returned once the full video has been received; ErrBusy if
// the gateway refused the session at admission.
func (c *Client) ReadFrame() (int, error) {
	if c.got >= c.want {
		return 0, io.EOF
	}
	for {
		line, err := c.br.ReadString('\n')
		if err != nil {
			return 0, err
		}
		f := strings.Fields(strings.TrimSpace(line))
		if len(f) >= 1 && f[0] == "BUSY" {
			return 0, ErrBusy
		}
		if len(f) != 2 || f[0] != "DATA" {
			continue // tolerate unknown lines
		}
		n, err := strconv.Atoi(f[1])
		if err != nil || n < 0 {
			return 0, fmt.Errorf("gateway: bad DATA header %q", strings.TrimSpace(line))
		}
		if _, err := io.CopyN(io.Discard, c.br, int64(n)); err != nil {
			return 0, err
		}
		c.got += int64(n)
		return n, nil
	}
}

// ReceivedBytes reports the client's progress.
func (c *Client) ReceivedBytes() int64 { return c.got }

// Done reports whether the whole video arrived.
func (c *Client) Done() bool { return c.got >= c.want }

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }
