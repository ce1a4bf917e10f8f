package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"eclipsemr/internal/hashing"
	"eclipsemr/internal/trace"
)

// TCP is a Network over real sockets. Node IDs are resolved through a
// static address registry supplied by the deployer (cmd/eclipse-node
// reads it from a hosts file). One multiplexed connection is maintained
// per destination; concurrent calls are matched to responses by request
// ID, and inbound requests are served on their own goroutines so nodes
// can call each other re-entrantly.
//
// Wire format, all integers big-endian:
//
//	request:   u64 reqID | u16 methodLen | method | u16 hdrLen | hdr
//	           | u32 bodyLen | body
//	response:  u64 reqID | u8 status(0 ok, 1 err) | u32 len | payload
//
// hdr is the envelope header: today the caller's trace.SpanContext, or
// empty (hdrLen 0) for an untraced call.
type TCP struct {
	mu       sync.Mutex
	registry map[hashing.NodeID]string // node -> host:port
	conns    map[hashing.NodeID]*tcpConn
	servers  map[hashing.NodeID]net.Listener
	accepted map[hashing.NodeID]map[net.Conn]struct{}
	timeout  time.Duration
	closed   bool
	wg       sync.WaitGroup
}

// NewTCP builds a TCP network over the given node->address registry.
// timeout bounds each call (zero means no timeout).
func NewTCP(registry map[hashing.NodeID]string, timeout time.Duration) *TCP {
	reg := make(map[hashing.NodeID]string, len(registry))
	for id, addr := range registry {
		reg[id] = addr
	}
	return &TCP{
		registry: reg,
		conns:    make(map[hashing.NodeID]*tcpConn),
		servers:  make(map[hashing.NodeID]net.Listener),
		accepted: make(map[hashing.NodeID]map[net.Conn]struct{}),
		timeout:  timeout,
	}
}

// Register adds or updates a node address.
func (t *TCP) Register(id hashing.NodeID, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.registry[id] = addr
}

// Addr returns the bound listen address for a node started with Listen,
// useful when listening on port 0.
func (t *TCP) Addr(id hashing.NodeID) (string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ln, ok := t.servers[id]
	if !ok {
		return "", false
	}
	return ln.Addr().String(), true
}

// Listen binds the node's registered address and serves inbound calls
// with h. If the registered address has port 0 the actual bound address
// replaces it in the registry.
func (t *TCP) Listen(id hashing.NodeID, h Handler) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return errors.New("transport: network closed")
	}
	addr, ok := t.registry[id]
	if !ok {
		t.mu.Unlock()
		return fmt.Errorf("transport: node %s not in registry", id)
	}
	if _, ok := t.servers[id]; ok {
		t.mu.Unlock()
		return fmt.Errorf("transport: node %s already listening", id)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.mu.Unlock()
		return fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	t.servers[id] = ln
	t.registry[id] = ln.Addr().String()
	t.mu.Unlock()

	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			t.mu.Lock()
			set := t.accepted[id]
			if set == nil {
				set = make(map[net.Conn]struct{})
				t.accepted[id] = set
			}
			set[conn] = struct{}{}
			t.mu.Unlock()
			t.wg.Add(1)
			go func() {
				defer t.wg.Done()
				t.serveConn(conn, h)
				t.mu.Lock()
				if set := t.accepted[id]; set != nil {
					delete(set, conn)
				}
				t.mu.Unlock()
			}()
		}
	}()
	return nil
}

// serveConn reads requests and dispatches each to the handler on its own
// goroutine; responses are serialized through a write lock.
func (t *TCP) serveConn(conn net.Conn, h Handler) {
	defer conn.Close()
	var wmu sync.Mutex
	for {
		reqID, method, hdr, body, err := readRequest(conn)
		if err != nil {
			return
		}
		go func() {
			//lint:ignore ctxflow server-side root for one inbound request; cancellation does not cross the wire (see handlerContext)
			ctx := context.Background()
			if len(hdr) > 0 {
				// A corrupt header only loses tracing, never the call.
				if sc, err := trace.DecodeSpanContext(hdr); err == nil {
					ctx = trace.WithRemote(ctx, sc)
				}
			}
			reply, herr := h(ctx, method, body)
			wmu.Lock()
			defer wmu.Unlock()
			status, payload := byte(0), reply
			if herr != nil {
				status, payload = byte(1), []byte(herr.Error())
			}
			if err := writeResponse(conn, reqID, status, payload); err != nil {
				// A failed — possibly partial — response write desyncs the
				// framing for every later reply multiplexed on this
				// connection. Tear it down so the peer fails fast and
				// redials instead of decoding garbage lengths.
				conn.Close()
			}
		}()
	}
}

// Call invokes a method on a remote node.
func (t *TCP) Call(ctx context.Context, to hashing.NodeID, method string, body []byte) ([]byte, error) {
	c, err := t.conn(to)
	if err != nil {
		return nil, err
	}
	reply, err := c.roundTrip(method, trace.Outbound(ctx).Encode(), body, t.timeout)
	if err != nil {
		var re *RemoteError
		if !errors.As(err, &re) {
			// Transport-level failure: drop the cached connection so the
			// next call redials.
			t.dropConn(to, c)
		}
		return nil, err
	}
	return reply, nil
}

func (t *TCP) conn(to hashing.NodeID) (*tcpConn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, errors.New("transport: network closed")
	}
	if c, ok := t.conns[to]; ok {
		t.mu.Unlock()
		return c, nil
	}
	addr, ok := t.registry[to]
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s (not in registry)", ErrUnreachable, to)
	}
	raw, err := net.DialTimeout("tcp", addr, 3*time.Second)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrUnreachable, to, err)
	}
	c := newTCPConn(raw)
	t.mu.Lock()
	if existing, ok := t.conns[to]; ok {
		t.mu.Unlock()
		c.close(errors.New("transport: duplicate connection"))
		return existing, nil
	}
	t.conns[to] = c
	t.mu.Unlock()
	return c, nil
}

func (t *TCP) dropConn(to hashing.NodeID, c *tcpConn) {
	t.mu.Lock()
	if t.conns[to] == c {
		delete(t.conns, to)
	}
	t.mu.Unlock()
	c.close(ErrUnreachable)
}

// Unlisten stops serving on a node, closing its listener and every
// connection it has accepted (so in-flight peers see the crash promptly).
func (t *TCP) Unlisten(id hashing.NodeID) {
	t.mu.Lock()
	ln, ok := t.servers[id]
	delete(t.servers, id)
	conns := t.accepted[id]
	delete(t.accepted, id)
	t.mu.Unlock()
	if ok {
		ln.Close()
	}
	for conn := range conns {
		conn.Close()
	}
}

// Close stops all listeners and client connections.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	servers := t.servers
	conns := t.conns
	accepted := t.accepted
	t.servers = map[hashing.NodeID]net.Listener{}
	t.conns = map[hashing.NodeID]*tcpConn{}
	t.accepted = map[hashing.NodeID]map[net.Conn]struct{}{}
	t.mu.Unlock()
	for _, ln := range servers {
		ln.Close()
	}
	for _, c := range conns {
		c.close(errors.New("transport: network closed"))
	}
	// Accepted server-side connections must be torn down too, or wg.Wait
	// blocks until every remote peer hangs up on its own.
	for _, set := range accepted {
		for conn := range set {
			conn.Close()
		}
	}
	t.wg.Wait()
	return nil
}

// tcpConn is one multiplexed client connection.
type tcpConn struct {
	raw     net.Conn
	wmu     sync.Mutex
	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan tcpReply
	err     error
}

type tcpReply struct {
	status byte
	data   []byte
}

func newTCPConn(raw net.Conn) *tcpConn {
	c := &tcpConn{raw: raw, pending: make(map[uint64]chan tcpReply)}
	//lint:ignore goroleak readLoop exits when the connection closes: readReply errors out and the loop returns
	go c.readLoop()
	return c
}

func (c *tcpConn) readLoop() {
	for {
		var hdr [13]byte
		if _, err := io.ReadFull(c.raw, hdr[:]); err != nil {
			c.close(fmt.Errorf("%w: %v", ErrUnreachable, err))
			return
		}
		reqID := binary.BigEndian.Uint64(hdr[0:8])
		status := hdr[8]
		n := binary.BigEndian.Uint32(hdr[9:13])
		data := make([]byte, n)
		if _, err := io.ReadFull(c.raw, data); err != nil {
			c.close(fmt.Errorf("%w: %v", ErrUnreachable, err))
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[reqID]
		delete(c.pending, reqID)
		c.mu.Unlock()
		if ok {
			ch <- tcpReply{status: status, data: data}
		}
	}
}

func (c *tcpConn) roundTrip(method string, hdr, body []byte, timeout time.Duration) ([]byte, error) {
	ch := make(chan tcpReply, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	c.mu.Unlock()

	if err := c.writeRequest(id, method, hdr, body); err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %v", ErrUnreachable, err)
	}

	var timer <-chan time.Time
	if timeout > 0 {
		tm := time.NewTimer(timeout)
		defer tm.Stop()
		timer = tm.C
	}
	select {
	case r := <-ch:
		switch r.status {
		case 0:
			return r.data, nil
		case statusTransportErr:
			return nil, fmt.Errorf("%w: %s", ErrUnreachable, r.data)
		default:
			return nil, &RemoteError{Method: method, Msg: string(r.data)}
		}
	case <-timer:
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %s after %v", ErrTimeout, method, timeout)
	}
}

func (c *tcpConn) writeRequest(id uint64, method string, envHdr, body []byte) error {
	if len(method) > 1<<16-1 {
		return errors.New("transport: method name too long")
	}
	if len(envHdr) > 1<<16-1 {
		return errors.New("transport: envelope header too long")
	}
	buf := make([]byte, 0, 16+len(method)+len(envHdr)+len(body))
	buf = binary.BigEndian.AppendUint64(buf, id)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(method)))
	buf = append(buf, method...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(envHdr)))
	buf = append(buf, envHdr...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(body)))
	buf = append(buf, body...)
	c.wmu.Lock()
	defer c.wmu.Unlock()
	_, err := c.raw.Write(buf)
	return err
}

func (c *tcpConn) close(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	pending := c.pending
	c.pending = map[uint64]chan tcpReply{}
	c.mu.Unlock()
	c.raw.Close()
	for _, ch := range pending {
		ch <- tcpReply{status: statusTransportErr, data: []byte(err.Error())}
	}
}

// statusTransportErr marks a locally synthesized failure reply (connection
// torn down) as opposed to an application error relayed from the remote
// handler (status 1).
const statusTransportErr = 2

func readRequest(r io.Reader) (reqID uint64, method string, envHdr, body []byte, err error) {
	var hdr [10]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, "", nil, nil, err
	}
	reqID = binary.BigEndian.Uint64(hdr[0:8])
	mbuf := make([]byte, binary.BigEndian.Uint16(hdr[8:10]))
	if _, err = io.ReadFull(r, mbuf); err != nil {
		return 0, "", nil, nil, err
	}
	var hlen [2]byte
	if _, err = io.ReadFull(r, hlen[:]); err != nil {
		return 0, "", nil, nil, err
	}
	envHdr = make([]byte, binary.BigEndian.Uint16(hlen[:]))
	if _, err = io.ReadFull(r, envHdr); err != nil {
		return 0, "", nil, nil, err
	}
	var lbuf [4]byte
	if _, err = io.ReadFull(r, lbuf[:]); err != nil {
		return 0, "", nil, nil, err
	}
	body = make([]byte, binary.BigEndian.Uint32(lbuf[:]))
	if _, err = io.ReadFull(r, body); err != nil {
		return 0, "", nil, nil, err
	}
	return reqID, string(mbuf), envHdr, body, nil
}

func writeResponse(w io.Writer, reqID uint64, status byte, payload []byte) error {
	buf := make([]byte, 0, 13+len(payload))
	var hdr [13]byte
	binary.BigEndian.PutUint64(hdr[0:8], reqID)
	hdr[8] = status
	binary.BigEndian.PutUint32(hdr[9:13], uint32(len(payload)))
	buf = append(buf, hdr[:]...)
	buf = append(buf, payload...)
	_, err := w.Write(buf)
	return err
}

var _ Network = (*TCP)(nil)
var _ Network = (*Local)(nil)
