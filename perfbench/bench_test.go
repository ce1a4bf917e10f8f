package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"eclipsemr/internal/trace"
)

// small shrinks a workload so the self-tests run in seconds; the metric
// names a run prints do not depend on sizes.
func small(t *testing.T, name string, o options) outcome {
	t.Helper()
	o.seed, o.maxRounds = 1, 1
	var (
		res outcome
		err error
	)
	if name == "sim_skew" {
		p := simSkew
		p.Jobs, p.Blocks, p.Universe, p.Setups = 4, 80, 400, 1
		res, err = runSim(p, o, io.Discard)
	} else {
		w := engineWorkloads[name]
		w.params.InputBytes, w.params.Setups = 256<<10, 1
		res, err = runEngine(w, o, io.Discard)
	}
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []metricDecl `json:"end_to_end"`
	PerLayer  []metricDecl `json:"per_layer"`
}

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, the benchmark runs %v", names, workloadNames)
	}
	strip := func(ds []metricDecl) []metricDecl {
		out := slices.Clone(ds)
		for i := range out {
			out[i].Moves = ""
		}
		return out
	}
	if got := strip(endToEnd); !slices.Equal(b.EndToEnd, got) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", b.EndToEnd, got)
	}
	if got := strip(perLayer); !slices.Equal(b.PerLayer, got) {
		t.Errorf("per_layer differs:\n json %v\n code %v", b.PerLayer, got)
	}
	for _, d := range perLayer {
		if d.Moves == "" {
			t.Errorf("%s does not say which end-to-end metric it should move", d.Name)
		}
	}
}

// TestEveryDeclaredMetricIsPrinted runs every workload in both modes and
// checks the result line names exactly the declared metrics, and that
// each per-layer metric is measured by at least one workload.
func TestEveryDeclaredMetricIsPrinted(t *testing.T) {
	measured := map[string]bool{}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			o := options{trace: traced}
			res := small(t, name, o)
			var out bytes.Buffer
			if err := report(&out, io.Discard, name, o, res); err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var r result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, traced, r.Correct, r.Attempted, r.Failed)
			}
			decls := endToEnd
			if traced {
				decls = perLayer
				for k := range res.metrics {
					measured[k] = true
				}
			}
			var printed, want []string
			for k := range r.Metrics {
				printed = append(printed, k)
			}
			for _, d := range decls {
				want = append(want, d.Name)
			}
			slices.Sort(printed)
			slices.Sort(want)
			if !slices.Equal(printed, want) {
				t.Errorf("%s trace=%v printed %v\nwant %v", name, traced, printed, want)
			}
		}
	}
	for _, d := range perLayer {
		if !measured[d.Name] {
			t.Errorf("no workload measures %s", d.Name)
		}
	}
}

// TestHeapPeakDoesNotGrowWithJobs pins the steady state between jobs:
// outputs and intermediates are removed after each check, so a run four
// times as long peaks at about the same live heap.
func TestHeapPeakDoesNotGrowWithJobs(t *testing.T) {
	w := engineWorkloads["sort"]
	w.params.InputBytes, w.params.Setups = 1<<20, 1
	peak := func(rounds int) float64 {
		res, err := runEngine(w, options{seed: 2, maxRounds: rounds}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		return res.metrics["heap_live_peak_mb"]
	}
	short, long := peak(3), peak(12)
	if long > 1.25*short {
		t.Fatalf("heap_live_peak_mb %.1f after 12 jobs, %.1f after 3: the run is not in a steady state", long, short)
	}
}

func burn(d time.Duration) (x float64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += float64(i) * 1.000001
		}
	}
	return x
}

func TestCPUAttributionSkipsHarnessSamples(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	burn(300 * time.Millisecond)
	asHarness(func() { burn(300 * time.Millisecond) })
	pprof.StopCPUProfile()
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var inBurn, harness int64
	for _, s := range samples {
		if stack(s.Stack).has(fn("eclipsemr/perfbench.burn", "main.burn")) {
			inBurn += s.Count
			if s.Labels[harnessLabel] != "" {
				harness += s.Count
			}
		}
	}
	_, total := attributeCPU(samples)
	if inBurn < 10 || harness == 0 || harness == inBurn {
		t.Fatalf("burn samples %d, of them harness-labelled %d", inBurn, harness)
	}
	if total > inBurn-harness+inBurn/2 {
		t.Fatalf("base %d samples includes the harness's %d", total, harness)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []trace.Span{
		{ID: 1, Name: "job", StartNS: 0, DurNS: 100},
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, DurNS: 30},
		{ID: 3, Parent: 1, Name: "a", StartNS: 20, DurNS: 30}, // overlaps the first child
		{ID: 4, Parent: 1, Name: "b", StartNS: 90, DurNS: 40}, // runs past the parent
	}
	got := selfTimes(spans)
	if got["job"] != 100-40-10 || got["a"] != 60 || got["b"] != 40 {
		t.Fatalf("self times %v", got)
	}
}
