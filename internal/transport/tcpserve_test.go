package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eclipsemr/internal/trace"
)

// failWriteConn wraps a net.Conn and fails every Write once armed,
// recording whether the server tore the connection down.
type failWriteConn struct {
	net.Conn
	fail      atomic.Bool
	closeOnce sync.Once
	closed    chan struct{}
}

func newFailWriteConn(c net.Conn) *failWriteConn {
	return &failWriteConn{Conn: c, closed: make(chan struct{})}
}

func (c *failWriteConn) Write(b []byte) (int, error) {
	if c.fail.Load() {
		return 0, errors.New("injected write failure")
	}
	return c.Conn.Write(b)
}

func (c *failWriteConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// TestTCPServeConnClosesOnWriteError is the regression test for the
// swallowed writeResponse error in serveConn: a failed (possibly
// partial) response write used to be ignored, leaving the connection
// open with desynced framing — the client would then block on a reply
// that never parses until its timeout. The server must instead close the
// connection so the client fails fast with a transport error and
// redials.
func TestTCPServeConnClosesOnWriteError(t *testing.T) {
	clientRaw, serverRaw := net.Pipe()
	server := newFailWriteConn(serverRaw)

	h := func(_ context.Context, method string, body []byte) ([]byte, error) {
		return []byte("ok"), nil
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		(&TCP{}).serveConn(server, h)
	}()

	client := newTCPConn(clientRaw)
	defer client.close(errors.New("test done"))

	// Healthy round trip first: the write path works until armed.
	reply, err := client.roundTrip("ping", nil, nil, 2*time.Second)
	if err != nil {
		t.Fatalf("healthy roundTrip: %v", err)
	}
	if string(reply) != "ok" {
		t.Fatalf("reply = %q, want ok", reply)
	}

	// Arm the fault: the next response write fails, so the server must
	// close the connection rather than keep serving a desynced stream.
	server.fail.Store(true)
	_, err = client.roundTrip("ping", nil, nil, 2*time.Second)
	if err == nil {
		t.Fatal("roundTrip after write failure: want error, got nil")
	}
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("roundTrip after write failure: got %v, want ErrUnreachable (connection torn down, not a timeout)", err)
	}
	select {
	case <-server.closed:
	case <-time.After(2 * time.Second):
		t.Fatal("server never closed the connection after a response write error")
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("serveConn did not return after the connection was closed")
	}
}

// TestTCPPropagatesSpanContext sends calls over a real socket and checks
// what the envelope header delivers to the handler: a traced call's span
// context arrives as trace.Remote, an untraced call (empty header)
// arrives with none, and a corrupt header loses only the tracing, never
// the call.
func TestTCPPropagatesSpanContext(t *testing.T) {
	net := newTCPPair(t)
	remote := func(ctx context.Context, _ string, _ []byte) ([]byte, error) {
		sc, ok := trace.Remote(ctx)
		return []byte(fmt.Sprintf("%v %s %d", ok, sc.Trace, sc.Parent)), nil
	}
	if err := net.Listen("a", remote); err != nil {
		t.Fatal(err)
	}

	traced := trace.WithRemote(context.Background(), trace.SpanContext{Trace: "job-7", Parent: 42})
	if reply, err := net.Call(traced, "a", "m", nil); err != nil || string(reply) != "true job-7 42" {
		t.Fatalf("traced call: reply %q, err %v", reply, err)
	}
	if reply, err := net.Call(context.Background(), "a", "m", nil); err != nil || string(reply) != "false  0" {
		t.Fatalf("untraced call: reply %q, err %v", reply, err)
	}

	c, err := net.conn("a")
	if err != nil {
		t.Fatal(err)
	}
	reply, err := c.roundTrip("m", []byte{0xff, 0x00, 0x01}, nil, 5*time.Second)
	if err != nil || string(reply) != "false  0" {
		t.Fatalf("corrupt header: reply %q, err %v", reply, err)
	}
}
