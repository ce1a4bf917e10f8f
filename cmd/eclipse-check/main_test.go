package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"eclipsemr/internal/benchrun"
	"eclipsemr/internal/bundle"
	"eclipsemr/internal/events"
	"eclipsemr/internal/hashing"
	"eclipsemr/internal/metrics"
	"eclipsemr/internal/trace"
)

func benchReport(batches int64) []byte {
	return mustJSON(benchrun.Report{
		Name: "wordcount", Config: benchrun.Config{Jobs: 1},
		WallMS: 5, JobMS: []float64{4},
		BytesShuffled: 100, ShuffleBatches: batches, ShuffleSendP99MS: 0.5,
		Counters: map[string]int64{"mr.shuffle.spills": 2},
	})
}

func ringReport(backends int) []byte {
	rep := benchrun.RingReport{Name: "ring"}
	for _, alg := range hashing.Algorithms()[:backends] {
		back := benchrun.RingBackendReport{Algorithm: alg}
		for _, n := range []int{8, 64, 512} {
			back.Points = append(back.Points, benchrun.RingPoint{
				Nodes: n, LookupNS: 100, JoinRemappedFrac: 0.1, LeaveRemappedFrac: 0.1,
			})
		}
		rep.Backends = append(rep.Backends, back)
	}
	return mustJSON(rep)
}

func debugBundle(t *testing.T, evs []events.Event) []byte {
	t.Helper()
	data, err := bundle.Encode(&bundle.Bundle{
		Reason: "manual", Node: "n0", Events: evs,
		Metrics:    []bundle.NodeMetrics{{Node: "n0"}},
		Membership: bundle.Membership{Members: []string{"n0"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func chromeTrace(t *testing.T) []byte {
	t.Helper()
	var now int64
	clock := metrics.ClockFunc(func() time.Time { now += int64(time.Millisecond); return time.Unix(0, now) })
	tr := trace.New("n0", trace.Options{Clock: clock})
	tr.SetEnabled(true)
	ctx, root := tr.StartRoot(context.Background(), "job-1", "driver.job")
	_, child := tr.StartSpan(ctx, "task.map")
	child.End()
	root.End()
	data, err := trace.ChromeTrace(tr.Spans("job-1"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return data
}

// TestCheckKinds runs every artifact kind over one valid and one broken
// file: the valid one must print its summary line, the broken one must
// fail naming the file and the violated rule.
func TestCheckKinds(t *testing.T) {
	chrome := chromeTrace(t)
	for _, tc := range []struct {
		kind        string
		valid       []byte
		wantSummary string
		broken      []byte
		wantErr     string
	}{
		{"bench", benchReport(1), "ok (1 batches for 2 spills, 100 bytes shuffled)",
			benchReport(3), "shuffle_batches = 3 exceeds spills = 2"},
		{"ring", ringReport(len(hashing.Algorithms())), fmt.Sprintf("ok (%d backends)", len(hashing.Algorithms())),
			ringReport(len(hashing.Algorithms()) - 1), "missing"},
		{"bundle", debugBundle(t, []events.Event{{ID: 1, Kind: events.KindJob, Name: "job.done", Node: "n0", AtNS: 1}}),
			`ok (reason "manual", 1 events, 1 metric nodes, 0 spans, 0 journal entries, 1 members)`,
			debugBundle(t, nil), "no events"},
		{"trace", chrome, fmt.Sprintf("ok (%d bytes)", len(chrome)),
			[]byte(`{"traceEvents": []}`), "no events"},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			dir := t.TempDir()
			good, bad := filepath.Join(dir, "good.json"), filepath.Join(dir, "bad.json")
			if err := os.WriteFile(good, tc.valid, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(bad, tc.broken, 0o644); err != nil {
				t.Fatal(err)
			}
			if got, err := checkFile(tc.kind, good); err != nil || got != tc.wantSummary {
				t.Errorf("valid %s: summary %q, err %v; want %q", tc.kind, got, err, tc.wantSummary)
			}
			_, err := checkFile(tc.kind, bad)
			if err == nil || !strings.Contains(err.Error(), bad) || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("broken %s: err %v, want one naming %s and %q", tc.kind, err, bad, tc.wantErr)
			}
		})
	}
}
