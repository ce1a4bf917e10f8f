package trace

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"eclipsemr/internal/metrics"
)

// frozenClock returns a virtual clock starting at t0 that advances by
// step on every read — deterministic but strictly increasing.
func tickClock(t0 int64, step time.Duration) metrics.Clock {
	var mu sync.Mutex
	now := t0
	return metrics.ClockFunc(func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		now += int64(step)
		return time.Unix(0, now)
	})
}

func TestDisabledTracerIsNilSafe(t *testing.T) {
	tr := New("n0", Options{})
	ctx, sp := tr.StartRoot(context.Background(), "job-1", "root")
	if sp != nil {
		t.Fatal("disabled tracer returned a span")
	}
	// All of these must be no-ops, not panics.
	sp.Annotate("k", "v")
	sp.Eventf("e %d", 1)
	sp.End()
	if _, child := tr.StartSpan(ctx, "child"); child != nil {
		t.Fatal("disabled tracer returned a child span")
	}
	if got := tr.Spans(""); len(got) != 0 {
		t.Fatalf("disabled tracer recorded %d spans", len(got))
	}
	var nilTr *Tracer
	if nilTr.Enabled() {
		t.Fatal("nil tracer enabled")
	}
	nilTr.SetEnabled(true)
	if _, sp := nilTr.StartRoot(context.Background(), "j", "r"); sp != nil {
		t.Fatal("nil tracer returned a span")
	}
}

func TestSpanTreeAndPropagation(t *testing.T) {
	tr := New("driver", Options{Clock: tickClock(0, time.Millisecond)})
	tr.SetEnabled(true)
	ctx, root := tr.StartRoot(context.Background(), "job-1", "driver.job")
	ctx2, child := tr.StartSpan(ctx, "dispatch")
	child.Annotate("task", "m0")

	// Cross the "wire": encode the outbound context, decode on a second
	// node, and start a handler-side span there.
	sc := Outbound(ctx2)
	if sc.Trace != "job-1" || sc.Parent != child.ID {
		t.Fatalf("outbound = %+v", sc)
	}
	wire := sc.Encode()
	got, err := DecodeSpanContext(wire)
	if err != nil || got != sc {
		t.Fatalf("decode = %+v, %v", got, err)
	}
	worker := New("worker", Options{Clock: tickClock(int64(time.Second), time.Millisecond)})
	worker.SetEnabled(true)
	wctx := WithRemote(context.Background(), got)
	_, task := worker.StartSpan(wctx, "task.map")
	task.Eventf("retry attempt=%d", 1)
	task.End()
	child.End()
	root.End()

	all := append(tr.Spans("job-1"), worker.Spans("job-1")...)
	if len(all) != 3 {
		t.Fatalf("collected %d spans", len(all))
	}
	roots := BuildTree(all)
	if len(roots) != 1 || roots[0].Span.Name != "driver.job" {
		t.Fatalf("roots = %+v", roots)
	}
	d := roots[0].Children
	if len(d) != 1 || d[0].Span.Name != "dispatch" || len(d[0].Children) != 1 {
		t.Fatalf("dispatch subtree wrong: %+v", d)
	}
	if got := d[0].Children[0].Span; got.Name != "task.map" || got.Node != "worker" {
		t.Fatalf("remote child = %+v", got)
	}
	text := RenderTimeline(all)
	for _, want := range []string{"driver.job", "task.map", "task=m0", "retry attempt=1"} {
		if !strings.Contains(text, want) {
			t.Fatalf("timeline missing %q:\n%s", want, text)
		}
	}
}

func TestStartSpanOutsideTraceReturnsNil(t *testing.T) {
	tr := New("n0", Options{})
	tr.SetEnabled(true)
	if _, sp := tr.StartSpan(context.Background(), "orphan"); sp != nil {
		t.Fatal("span started outside any trace")
	}
}

func TestRingBounded(t *testing.T) {
	tr := New("n0", Options{Capacity: 8, Clock: tickClock(0, time.Microsecond)})
	tr.SetEnabled(true)
	for i := 0; i < 20; i++ {
		_, sp := tr.StartRoot(context.Background(), "job-1", fmt.Sprintf("s%02d", i))
		sp.End()
	}
	got := tr.Spans("job-1")
	if len(got) != 8 {
		t.Fatalf("ring kept %d spans, want 8", len(got))
	}
	if got[0].Name != "s12" || got[7].Name != "s19" {
		t.Fatalf("ring kept wrong window: %s..%s", got[0].Name, got[7].Name)
	}
	if tr.Dropped() != 12 {
		t.Fatalf("dropped = %d, want 12", tr.Dropped())
	}
}

func TestSeededIDsDeterministic(t *testing.T) {
	mk := func() []Span {
		tr := New("n0", Options{Seed: 7, Clock: tickClock(0, time.Millisecond)})
		tr.SetEnabled(true)
		ctx, root := tr.StartRoot(context.Background(), "job-1", "root")
		_, c := tr.StartSpan(ctx, "child")
		c.End()
		root.End()
		return tr.Spans("")
	}
	a, b := mk(), mk()
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("span counts %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].StartNS != b[i].StartNS {
			t.Fatalf("run divergence at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestChromeExportDeterministicAndValid(t *testing.T) {
	mk := func() []byte {
		d := New("driver", Options{Clock: tickClock(0, time.Millisecond)})
		w := New("worker-01", Options{Clock: tickClock(int64(10*time.Millisecond), time.Millisecond)})
		d.SetEnabled(true)
		w.SetEnabled(true)
		ctx, root := d.StartRoot(context.Background(), "job-1", "driver.job")
		wctx := WithRemote(context.Background(), Outbound(ctx))
		_, m := w.StartSpan(wctx, "task.map")
		m.Annotate("cache", "miss")
		m.Eventf("retry attempt=1")
		m.End()
		root.End()
		out, err := ChromeTrace(append(d.Spans(""), w.Spans("")...))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := mk(), mk()
	if !bytes.Equal(a, b) {
		t.Fatalf("export not deterministic:\n%s\n---\n%s", a, b)
	}
	if err := ValidateChrome(a); err != nil {
		t.Fatalf("export invalid: %v\n%s", err, a)
	}
	for _, want := range []string{`"process_name"`, `"driver"`, `"worker-01"`,
		`"cache": "miss"`, `"retry attempt=1"`, `"displayTimeUnit": "ms"`} {
		if !bytes.Contains(a, []byte(want)) {
			t.Fatalf("export missing %s:\n%s", want, a)
		}
	}
}

func TestValidateChromeRejectsMalformed(t *testing.T) {
	if err := ValidateChrome([]byte("{")); err == nil {
		t.Fatal("accepted truncated JSON")
	}
	if err := ValidateChrome([]byte(`{"traceEvents":[]}`)); err == nil {
		t.Fatal("accepted empty trace")
	}
	bad := `{"traceEvents":[
	 {"name":"b","ph":"X","ts":50,"pid":1,"tid":1,
	  "args":{"span":"0000000000000002","parent":"0000000000000001"}},
	 {"name":"a","ph":"X","ts":100,"pid":1,"tid":1,
	  "args":{"span":"0000000000000001","parent":"0000000000000000"}}]}`
	if err := ValidateChrome([]byte(bad)); err == nil {
		t.Fatal("accepted child starting before parent")
	}
	unordered := `{"traceEvents":[
	 {"name":"a","ph":"X","ts":100,"pid":1,"tid":1},
	 {"name":"b","ph":"X","ts":50,"pid":1,"tid":1}]}`
	if err := ValidateChrome([]byte(unordered)); err == nil {
		t.Fatal("accepted non-monotone timestamps")
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := New("n0", Options{Capacity: 64})
	tr.SetEnabled(true)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ctx, root := tr.StartRoot(context.Background(), "job-1", "root")
				_, c := tr.StartSpan(ctx, "child")
				c.Annotate("g", fmt.Sprint(g))
				c.Eventf("i=%d", i)
				c.End()
				root.End()
			}
		}(g)
	}
	wg.Wait()
	got := tr.Spans("job-1")
	if len(got) != 64 {
		t.Fatalf("ring kept %d spans, want 64", len(got))
	}
	seen := map[SpanID]bool{}
	for _, s := range got {
		if seen[s.ID] {
			t.Fatalf("duplicate span ID %d", s.ID)
		}
		seen[s.ID] = true
	}
}

func TestAnnotateHelpersOnContext(t *testing.T) {
	tr := New("n0", Options{Clock: tickClock(0, time.Millisecond)})
	tr.SetEnabled(true)
	ctx, sp := tr.StartRoot(context.Background(), "job-1", "root")
	Annotate(ctx, "k", "v")
	Eventf(ctx, "hello %s", "world")
	sp.End()
	got := tr.Spans("job-1")
	if len(got) != 1 || len(got[0].Annotations) != 1 || len(got[0].Events) != 1 {
		t.Fatalf("span = %+v", got)
	}
	// Without an active span both helpers are no-ops.
	Annotate(context.Background(), "k", "v")
	Eventf(context.Background(), "x")
}

func TestDecodeSpanContextErrors(t *testing.T) {
	if _, err := DecodeSpanContext([]byte{1, 2}); err == nil {
		t.Fatal("accepted short buffer")
	}
	sc := SpanContext{Trace: "job-1", Parent: 42}
	b := sc.Encode()
	b[0] = 99
	if _, err := DecodeSpanContext(b); err == nil {
		t.Fatal("accepted unknown version")
	}
	b[0] = 1
	if _, err := DecodeSpanContext(b[:len(b)-1]); err == nil {
		t.Fatal("accepted truncated trace ID")
	}
	if (SpanContext{}).Encode() != nil {
		t.Fatal("invalid context encoded to bytes")
	}
}
