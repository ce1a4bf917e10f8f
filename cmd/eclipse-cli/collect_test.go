package main

import (
	"context"
	"testing"

	"eclipsemr/internal/cluster"
	"eclipsemr/internal/hashing"
	"eclipsemr/internal/trace"
	"eclipsemr/internal/transport"
)

// TestCollectAllSkipsUnreachable drives the trace/events fan-out over an
// in-process network: replies from the live nodes are unioned, merged
// and their dropped counts summed, while the node nobody serves is
// skipped rather than failing the collection.
func TestCollectAllSkipsUnreachable(t *testing.T) {
	net := transport.NewLocal()
	defer net.Close()
	serve := func(id hashing.NodeID, spans []trace.Span, dropped int64) {
		err := net.Listen(id, func(context.Context, string, []byte) ([]byte, error) {
			return transport.Encode(cluster.SpansResp{Node: id, Spans: spans, Dropped: dropped})
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	shared := trace.Span{Trace: "j", ID: 1, Name: "driver.job", Node: "a", StartNS: 10}
	serve("a", []trace.Span{shared}, 2)
	serve("b", []trace.Span{shared, {Trace: "j", ID: 2, Name: "task.map", Node: "b", StartNS: 5}}, 3)
	hosts := map[hashing.NodeID]string{"a": "", "b": "", "down": ""}

	spans, dropped := collectAll(net, hosts, "trace", cluster.MethodSpans, cluster.SpansReq{Trace: "j"},
		func(r *cluster.SpansResp) ([]trace.Span, int64) { return r.Spans, r.Dropped }, trace.Dedupe)
	if dropped != 5 {
		t.Errorf("dropped = %d, want 5", dropped)
	}
	if len(spans) != 2 || spans[0].ID != 2 || spans[1].ID != 1 {
		t.Errorf("spans = %+v, want task.map then driver.job, deduped", spans)
	}
}
