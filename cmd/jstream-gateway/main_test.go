package main

import (
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"jointstream/internal/gateway"
)

// runArgs parses args and runs the command with its output discarded.
func runArgs(t *testing.T, args ...string) (*report, error) {
	t.Helper()
	o, err := parseFlags(args)
	if err != nil {
		t.Fatalf("%q: %v", args, err)
	}
	return run(o, io.Discard, io.Discard)
}

// TestRunInProcess drives 40 sessions with a fault mix against the
// in-process gateway on a 5 ms slot: every session is filed exactly once,
// none fails unexpectedly, and nothing leaks after the drain.
func TestRunInProcess(t *testing.T) {
	rep, err := runArgs(t,
		"-clients", "40", "-concurrency", "16", "-arrival", "1ms",
		"-video", "60", "-rate", "600", "-slot", "5ms", "-max-sessions", "12",
		"-sched", "default", "-capacity", "50000", "-seed", "3",
		"-fault-drop", "0.1", "-fault-stall", "0.1", "-fault-flap", "0.1")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sessions != 40 {
		t.Fatalf("ran %d sessions, want 40", rep.Sessions)
	}
	if filed := rep.Completed + rep.Busy + rep.Dropped + rep.Failed; filed != int64(rep.Sessions) {
		t.Errorf("filed %d outcomes for %d sessions: %+v", filed, rep.Sessions, rep)
	}
	if rep.Failed != 0 || rep.LeakedGoroutines != 0 {
		t.Errorf("failed=%d leaked=%d, want 0/0", rep.Failed, rep.LeakedGoroutines)
	}
	if rep.Completed == 0 || rep.Slots == 0 {
		t.Errorf("nothing served: %+v", rep)
	}
}

// TestRunRefusals: option combinations no mode runs are refused before
// anything starts.
func TestRunRefusals(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-serve", "-connect", "127.0.0.1:1"}, "pick one"},
		{[]string{"-clients", "0"}, "-clients"},
		{[]string{"-sched", "fifo"}, "unknown scheduler"},
		{[]string{"-fault-drop", "1.5"}, "-fault-drop"},
		{[]string{"-fault-stall", "-0.1"}, "-fault-stall"},
		{[]string{"-fault-flap", "NaN"}, "-fault-flap"},
		{[]string{"-fault-drop", "0.5", "-fault-stall", "0.3", "-fault-flap", "0.3"}, "above 1"},
	} {
		if _, err := runArgs(t, tc.args...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: err = %v, want one naming %q", tc.args, err, tc.want)
		}
	}
}

// TestIdleHandshakeDoesNotDelayClients: a connection that never sends its
// HELLO holds up no later client, because each handshake runs on its own
// goroutine, and closing the server cuts that handshake short, promptly
// and with no goroutine left behind.
func TestIdleHandshakeDoesNotDelayClients(t *testing.T) {
	base := runtime.NumGoroutine()
	o, err := parseFlags([]string{"-iotimeout", "3s", "-slot", "5ms", "-sched", "default", "-max-sessions", "4"})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := startServer(o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.ln.Addr().String()
	idle, err := net.Dial("tcp", addr)
	if err != nil {
		srv.close()
		t.Fatal(err)
	}
	defer idle.Close()
	start := time.Now()
	c, err := gateway.DialClient(addr, 60, 600)
	if err != nil {
		srv.close()
		t.Fatal(err)
	}
	if _, err := c.ReadFrame(); err != nil {
		t.Errorf("first frame: %v", err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Errorf("a client behind an idle connection waited %v for its first frame (-iotimeout 3s)", waited)
	}
	c.Close()
	start = time.Now()
	srv.close()
	if took := time.Since(start); took > time.Second {
		t.Errorf("close took %v with an idle handshake in flight", took)
	}
	if n := leakedSince(base); n != 0 {
		t.Errorf("%d goroutines outlived close", n)
	}
}
