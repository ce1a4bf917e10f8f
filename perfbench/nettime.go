package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"eclipsemr/internal/hashing"
	"eclipsemr/internal/transport"
)

// timingNet is a transport.Network decorator that accounts RPCs per
// method: calls, handler busy time, request and reply bytes, and errors.
// It is passed in through cluster.Options.Network, so it sits beneath the
// cluster's retry layer and sees every attempt. Bytes and errors pass
// through untouched. Accounting runs only while recording is on, so the
// untraced phase pays one atomic load per call.
type timingNet struct {
	inner     transport.Network
	recording atomic.Bool

	mu      sync.Mutex
	methods map[string]*methodStats
}

// methodStats is one method's running totals.
type methodStats struct {
	calls, errors, reqBytes, replyBytes, busyNS atomic.Int64
	// busy holds each handler duration, kept for the methods whose
	// percentiles are reported (guarded by timingNet.mu).
	busy []time.Duration
}

// percentileMethods are the methods whose per-call durations are kept.
var percentileMethods = map[string]bool{"mr.runMap": true, "mr.runReduce": true}

func newTimingNet(inner transport.Network) *timingNet {
	return &timingNet{inner: inner, methods: make(map[string]*methodStats)}
}

func (n *timingNet) stats(method string) *methodStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	s, ok := n.methods[method]
	if !ok {
		s = &methodStats{}
		n.methods[method] = s
	}
	return s
}

// Listen registers the node with a handler that times each invocation.
func (n *timingNet) Listen(id hashing.NodeID, h transport.Handler) error {
	return n.inner.Listen(id, func(ctx context.Context, method string, body []byte) ([]byte, error) {
		if !n.recording.Load() {
			return h(ctx, method, body)
		}
		start := time.Now()
		out, err := h(ctx, method, body)
		d := time.Since(start)
		s := n.stats(method)
		s.busyNS.Add(int64(d))
		if percentileMethods[method] {
			n.mu.Lock()
			s.busy = append(s.busy, d)
			n.mu.Unlock()
		}
		return out, err
	})
}

// Call forwards the call and counts it, its bytes and its error.
func (n *timingNet) Call(ctx context.Context, to hashing.NodeID, method string, body []byte) ([]byte, error) {
	out, err := n.inner.Call(ctx, to, method, body)
	if n.recording.Load() {
		s := n.stats(method)
		s.calls.Add(1)
		s.reqBytes.Add(int64(len(body)))
		s.replyBytes.Add(int64(len(out)))
		if err != nil {
			s.errors.Add(1)
		}
	}
	return out, err
}

func (n *timingNet) Unlisten(id hashing.NodeID) { n.inner.Unlisten(id) }

func (n *timingNet) Close() error { return n.inner.Close() }

// Unwrap lets the cluster's metrics walk reach the wrapped network.
func (n *timingNet) Unwrap() transport.Network { return n.inner }

// methodTotals is a plain copy of one method's counters.
type methodTotals struct {
	Calls, Errors, Bytes int64
	Busy                 time.Duration
	Durations            []time.Duration
}

// totals copies every method's counters.
func (n *timingNet) totals() map[string]methodTotals {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[string]methodTotals, len(n.methods))
	for name, s := range n.methods {
		out[name] = methodTotals{
			Calls:     s.calls.Load(),
			Errors:    s.errors.Load(),
			Bytes:     s.reqBytes.Load() + s.replyBytes.Load(),
			Busy:      time.Duration(s.busyNS.Load()),
			Durations: append([]time.Duration(nil), s.busy...),
		}
	}
	return out
}
