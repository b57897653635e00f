package gateway

import (
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"jointstream/internal/sched"
	"jointstream/internal/units"
)

func TestParseHello(t *testing.T) {
	good, err := parseHello("HELLO 2000 400\n")
	if err != nil {
		t.Fatal(err)
	}
	if good.VideoKB != 2000 || good.Rate != 400 {
		t.Errorf("parsed %+v", good)
	}
	bad := []string{
		"",
		"HELLO\n",
		"HELLO 2000\n",
		"HOWDY 2000 400\n",
		"HELLO abc 400\n",
		"HELLO 2000 abc\n",
		"HELLO -5 400\n",
		"HELLO 2000 0\n",
		"HELLO 1 2 3\n",
	}
	for _, line := range bad {
		if _, err := parseHello(line); err == nil {
			t.Errorf("accepted %q", line)
		}
	}
}

func TestNewClientValidation(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	if _, err := NewClient(a, 0, 400); err == nil {
		t.Error("zero video accepted")
	}
	a2, b2 := net.Pipe()
	defer b2.Close()
	if _, err := NewClient(a2, 100, 0); err == nil {
		t.Error("zero rate accepted")
	}
}

// startGateway runs a gateway over a real TCP listener, stepping every
// few milliseconds, and returns its address and a stop function.
func startGateway(t *testing.T, s sched.Scheduler) (string, func()) {
	t.Helper()
	gw, err := New(Config{
		Tau:      0.05,
		Unit:     25,
		Capacity: 50000,
		Radio:    testConfig().Radio,
		QueueCap: 10000,
	}, s)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if _, err := AttachConnWith(gw, conn, ConnOptions{InitialSig: -80}); err != nil {
				conn.Close()
			}
		}
	}()
	go func() {
		ticker := time.NewTicker(5 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				gw.Step()
			}
		}
	}()
	return ln.Addr().String(), func() {
		close(stop)
		ln.Close()
	}
}

func TestTCPEndToEnd(t *testing.T) {
	addr, stop := startGateway(t, sched.NewDefault())
	defer stop()

	c, err := DialClient(addr, 500, 400)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.ReportSignal(-60); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(30 * time.Second)
	for !c.Done() {
		select {
		case <-deadline:
			t.Fatalf("timeout: received %d bytes", c.ReceivedBytes())
		default:
		}
		if _, err := c.ReadFrame(); err != nil {
			if err == io.EOF && c.Done() {
				break
			}
			t.Fatalf("ReadFrame: %v (got %d)", err, c.ReceivedBytes())
		}
	}
	if c.ReceivedBytes() != 500000 {
		t.Errorf("received %d bytes, want 500000", c.ReceivedBytes())
	}
	// Post-completion reads report EOF.
	if _, err := c.ReadFrame(); err != io.EOF {
		t.Errorf("post-completion ReadFrame err = %v, want EOF", err)
	}
}

func TestTCPMultipleClients(t *testing.T) {
	addr, stop := startGateway(t, sched.NewDefault())
	defer stop()

	const n = 3
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(id int) {
			c, err := DialClient(addr, 200, 400)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			deadline := time.After(30 * time.Second)
			for !c.Done() {
				select {
				case <-deadline:
					errs <- fmt.Errorf("client %d timeout at %d bytes", id, c.ReceivedBytes())
					return
				default:
				}
				if _, err := c.ReadFrame(); err != nil && err != io.EOF {
					errs <- fmt.Errorf("client %d: %w", id, err)
					return
				}
			}
			errs <- nil
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestAttachConnRejectsBadHandshake(t *testing.T) {
	gw, err := New(Config{
		Tau: 1, Unit: 100, Capacity: 5000,
		Radio: testConfig().Radio, QueueCap: 1000,
	}, sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	server, client := net.Pipe()
	done := make(chan error, 1)
	go func() {
		_, err := AttachConnWith(gw, server, ConnOptions{InitialSig: -80})
		done <- err
	}()
	fmt.Fprintf(client, "GARBAGE\n")
	if err := <-done; err == nil {
		t.Error("bad handshake accepted")
	}
	client.Close()
	server.Close()
}

func TestParseSig(t *testing.T) {
	good := []struct {
		line string
		want units.DBm
	}{
		{"SIG -60\n", -60},
		{"SIG -75.5\n", -75.5},
		{"  SIG 0  \n", 0},
	}
	for _, c := range good {
		got, ok := parseSig(c.line)
		if !ok || got != c.want {
			t.Errorf("parseSig(%q) = %v, %v; want %v, true", c.line, got, ok, c.want)
		}
	}
	bad := []string{
		"",
		"SIG\n",
		"SIG -60 extra\n",
		"SIG abc\n",
		"SIG NaN\n",
		"SIG Inf\n",
		"SIG -Inf\n",
		"sig -60\n",
		"DATA 5\n",
	}
	for _, line := range bad {
		if _, ok := parseSig(line); ok {
			t.Errorf("parseSig accepted %q", line)
		}
	}
}

// TestAttachConnIgnoresMalformedSig: garbage and malformed SIG lines on
// the control stream must neither corrupt the report nor kill the
// reader; a subsequent well-formed SIG still lands.
func TestAttachConnIgnoresMalformedSig(t *testing.T) {
	gw, err := New(testConfig(), sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	server, client := net.Pipe()
	defer client.Close()
	done := make(chan int, 1)
	go func() {
		id, err := AttachConnWith(gw, server, ConnOptions{InitialSig: -80})
		if err != nil {
			t.Error(err)
		}
		done <- id
	}()
	fmt.Fprintf(client, "HELLO 1000 400\n")
	<-done
	// Drain gateway->client DATA frames so pipe writes never block.
	go io.Copy(io.Discard, client)
	fmt.Fprintf(client, "SIG NaN\nGARBAGE LINE\nSIG\nSIG -42\n")
	gw.mu.Lock()
	ep := gw.users[0].ep.(*TCPEndpoint)
	gw.mu.Unlock()
	deadline := time.After(5 * time.Second)
	for {
		rep, ok := ep.Report()
		if ok && rep.Sig == -42 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("SIG update never applied; report = %+v, %v", rep, ok)
		case <-time.After(time.Millisecond):
		}
	}
}

// TestAttachConnMidHandshakeDisconnect: a peer that hangs up before
// completing the HELLO line must produce an attach error, not a hang or
// a half-attached user.
func TestAttachConnMidHandshakeDisconnect(t *testing.T) {
	gw, err := New(testConfig(), sched.NewDefault())
	if err != nil {
		t.Fatal(err)
	}
	server, client := net.Pipe()
	done := make(chan error, 1)
	go func() {
		_, err := AttachConnWith(gw, server, ConnOptions{InitialSig: -80})
		done <- err
	}()
	// Partial handshake, then disconnect without the terminating newline.
	fmt.Fprintf(client, "HELLO 10")
	client.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("mid-handshake disconnect accepted")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AttachConnWith hung on mid-handshake disconnect")
	}
	gw.mu.Lock()
	n := len(gw.users)
	gw.mu.Unlock()
	if n != 0 {
		t.Errorf("half-attached users = %d, want 0", n)
	}
}

// TestClientReadFrameTruncatedData: a DATA frame whose payload is cut
// short by a disconnect must surface an error, not a silent short read.
func TestClientReadFrameTruncatedData(t *testing.T) {
	server, client := net.Pipe()
	go func() {
		buf := make([]byte, 64)
		server.Read(buf) // drain handshake
		fmt.Fprintf(server, "DATA 1000\npartial")
		server.Close()
	}()
	c, err := NewClient(client, 100, 400)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.ReadFrame(); err == nil {
		t.Error("truncated DATA frame accepted")
	}
}

// TestClientReadFrameNegativeCount: a negative DATA length is a protocol
// error, never a payload read.
func TestClientReadFrameNegativeCount(t *testing.T) {
	server, client := net.Pipe()
	go func() {
		buf := make([]byte, 64)
		server.Read(buf)
		fmt.Fprintf(server, "DATA -5\n")
	}()
	c, err := NewClient(client, 100, 400)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.ReadFrame(); err == nil {
		t.Error("negative DATA count accepted")
	}
}

func TestTCPEndpointReportAndLifecycle(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	defer client.Close()
	ep := &TCPEndpoint{conn: server, sig: -80, rate: 400}

	rep, ok := ep.Report()
	if !ok || rep.Sig != -80 || rep.Rate != 400 {
		t.Fatalf("initial report = %+v, %v", rep, ok)
	}
	ep.setSig(-55)
	rep, _ = ep.Report()
	if rep.Sig != units.DBm(-55) {
		t.Errorf("sig after update = %v", rep.Sig)
	}
	ep.markGone()
	if _, ok := ep.Report(); ok {
		t.Error("gone endpoint still reporting")
	}
	if err := ep.Deliver([]byte{1}); err == nil {
		t.Error("delivery to gone endpoint succeeded")
	}
}

func TestTCPEndpointDeliverFrames(t *testing.T) {
	server, client := net.Pipe()
	defer client.Close()
	ep := &TCPEndpoint{conn: server, sig: -70, rate: 400}
	payload := []byte("hello-frame")
	go func() {
		if err := ep.Deliver(payload); err != nil {
			t.Error(err)
		}
		server.Close()
	}()
	buf := make([]byte, 256)
	var got []byte
	for {
		n, err := client.Read(buf)
		got = append(got, buf[:n]...)
		if err != nil {
			break
		}
	}
	want := fmt.Sprintf("DATA %d\n%s", len(payload), payload)
	if string(got) != want {
		t.Errorf("wire bytes = %q, want %q", got, want)
	}
}

func TestClientReadFrameBadHeader(t *testing.T) {
	server, client := net.Pipe()
	go func() {
		// Drain the handshake, then emit a corrupt DATA header.
		buf := make([]byte, 64)
		server.Read(buf)
		fmt.Fprintf(server, "DATA notanumber\n")
	}()
	c, err := NewClient(client, 100, 400)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.ReadFrame(); err == nil {
		t.Error("corrupt DATA header accepted")
	}
}

// TestDetachedTCPSessionIsTold: a TCP session the gateway detaches while
// its client still reads, shed or cut off by the breaker, has its
// connection closed when it retires, so the client's read ends at once
// instead of waiting out the I/O timeout (or forever without one).
func TestDetachedTCPSessionIsTold(t *testing.T) {
	for _, tc := range []struct {
		reason DetachReason
		detach func(g *Gateway, u *user)
	}{
		{detachShed, func(g *Gateway, u *user) {
			for i := 0; i < shedMissThreshold; i++ {
				g.noteTick(time.Millisecond, true)
			}
			g.maybeShed()
		}},
		{detachBreaker, func(g *Gateway, u *user) {
			for i := 0; i < g.policy.BreakerTrips; i++ {
				g.recordStrike(u)
			}
		}},
	} {
		t.Run(string(tc.reason), func(t *testing.T) {
			g, err := New(Config{
				Tau:      0.05,
				Unit:     25,
				Capacity: 50000,
				Radio:    testConfig().Radio,
				QueueCap: 1000,
				Policy:   Policy{ShedMaxPerSlot: 1},
			}, sched.NewDefault())
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			attached := make(chan error, 1)
			go func() {
				conn, err := ln.Accept()
				if err == nil {
					_, err = AttachConnWith(g, conn, ConnOptions{InitialSig: -60})
				}
				attached <- err
			}()
			c, err := DialClient(ln.Addr().String(), 100000, 400)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := <-attached; err != nil {
				t.Fatal(err)
			}
			ended := make(chan struct{})
			go func() {
				defer close(ended)
				for {
					if _, err := c.ReadFrame(); err != nil {
						return
					}
				}
			}()
			for i := 0; i < 3; i++ {
				if _, err := g.Step(); err != nil {
					t.Fatal(err)
				}
			}
			g.mu.Lock()
			tc.detach(g, g.users[0])
			g.mu.Unlock()
			if _, err := g.Step(); err != nil {
				t.Fatal(err)
			}
			if st, _ := g.StatsFor(0); st.DetachReason != tc.reason {
				t.Fatalf("detach reason %q, want %q", st.DetachReason, tc.reason)
			}
			select {
			case <-ended:
			case <-time.After(time.Second):
				t.Fatalf("client still reading 1 s after a %s detach", tc.reason)
			}
		})
	}
}
