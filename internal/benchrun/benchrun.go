// Package benchrun runs the paper's workloads on the real in-process
// engine and reduces the cluster-merged metrics snapshot to a compact
// JSON report (wall time, per-stage latency quantiles, cache hit ratio).
// scripts/bench.sh and the go test -bench harness both go through this
// package so every BENCH_*.json is produced the same way and PR-over-PR
// numbers stay comparable.
package benchrun

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"eclipsemr/internal/apps"
	"eclipsemr/internal/cluster"
	"eclipsemr/internal/dhtfs"
	"eclipsemr/internal/mapreduce"
	"eclipsemr/internal/trace"
	"eclipsemr/internal/workloads"
)

// Config sizes one benchmark run. The zero value is invalid; use
// DefaultConfig or ShortConfig as a starting point.
type Config struct {
	// Nodes is the in-process cluster size.
	Nodes int `json:"nodes"`
	// Bytes is the input corpus size (wordcount) or an upper bound used
	// to derive the point count (kmeans).
	Bytes int `json:"bytes"`
	// Jobs is how many times the wordcount job runs over the same input;
	// runs after the first hit the warm iCache, so Jobs >= 2 makes the
	// reported cache hit ratio meaningful.
	Jobs int `json:"jobs"`
	// Iterations is the number of k-means Lloyd iterations.
	Iterations int `json:"iterations"`
	// Seed makes the generated inputs reproducible.
	Seed int64 `json:"seed"`
	// Trace enables per-job span recording on every node for the run, so
	// the report carries the tracing overhead and the final job's trace
	// can be exported (see Overhead and TracedRun).
	Trace bool `json:"trace,omitempty"`
}

// DefaultConfig is the full-size run used for trend tracking.
func DefaultConfig() Config {
	return Config{Nodes: 8, Bytes: 4 << 20, Jobs: 3, Iterations: 3, Seed: 1}
}

// ShortConfig is the CI smoke-test size: a few seconds end to end.
func ShortConfig() Config {
	return Config{Nodes: 4, Bytes: 256 << 10, Jobs: 2, Iterations: 2, Seed: 1}
}

// Stage summarizes one latency histogram from the merged snapshot.
type Stage struct {
	Count  int64   `json:"count"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	MeanMS float64 `json:"mean_ms"`
}

// Report is the BENCH_*.json payload.
type Report struct {
	Name          string    `json:"name"`
	GoVersion     string    `json:"go_version"`
	Config        Config    `json:"config"`
	WallMS        float64   `json:"wall_ms"`
	JobMS         []float64 `json:"job_ms"`
	CacheHitRatio float64   `json:"cache_hit_ratio"`
	// Shuffle pipeline headline numbers, lifted out of Counters/Stages
	// so report validators and PR diffs can read them without knowing
	// metric names: total intermediate bytes pushed, coalesced batch
	// RPCs issued, and the p99 of one batch push.
	BytesShuffled    int64            `json:"bytes_shuffled"`
	ShuffleBatches   int64            `json:"shuffle_batches"`
	ShuffleSendP99MS float64          `json:"shuffle_send_p99_ms"`
	Counters         map[string]int64 `json:"counters"`
	Stages           map[string]Stage `json:"stages"`
	// TraceSpans is how many spans the run recorded (0 untraced) and
	// TraceDropped how many were overwritten before collection.
	TraceSpans   int   `json:"trace_spans,omitempty"`
	TraceDropped int64 `json:"trace_dropped,omitempty"`
}

// Validate checks a wordcount or kmeans report: a positive wall time
// with one timing per job, and the shuffle pipeline headline fields
// populated — intermediate bytes actually moved, at least one coalesced
// batch RPC, never more batches than spills, and a recorded send p99. A
// report that silently lost its shuffle accounting fails here instead of
// shipping as a perf point.
func (rep Report) Validate() error {
	switch rep.Name {
	case "wordcount", "kmeans":
	default:
		return fmt.Errorf("name = %q, want \"wordcount\" or \"kmeans\"", rep.Name)
	}
	if rep.WallMS <= 0 {
		return fmt.Errorf("wall_ms = %v", rep.WallMS)
	}
	if rep.Name == "wordcount" && len(rep.JobMS) != rep.Config.Jobs {
		return fmt.Errorf("job_ms has %d entries for %d jobs", len(rep.JobMS), rep.Config.Jobs)
	}
	if len(rep.JobMS) == 0 {
		return fmt.Errorf("job_ms is empty")
	}
	for i, ms := range rep.JobMS {
		if ms <= 0 {
			return fmt.Errorf("job_ms[%d] = %v", i, ms)
		}
	}
	if rep.BytesShuffled <= 0 {
		return fmt.Errorf("bytes_shuffled = %d, want > 0", rep.BytesShuffled)
	}
	if rep.ShuffleBatches <= 0 {
		return fmt.Errorf("shuffle_batches = %d, want >= 1", rep.ShuffleBatches)
	}
	spills := rep.Counters["mr.shuffle.spills"]
	if spills <= 0 {
		return fmt.Errorf("counters[mr.shuffle.spills] = %d, want > 0", spills)
	}
	if rep.ShuffleBatches > spills {
		return fmt.Errorf("shuffle_batches = %d exceeds spills = %d", rep.ShuffleBatches, spills)
	}
	if rep.ShuffleSendP99MS <= 0 {
		return fmt.Errorf("shuffle_send_p99_ms = %v, want > 0", rep.ShuffleSendP99MS)
	}
	return nil
}

// Run executes the named workload ("wordcount" or "kmeans") on a fresh
// in-process cluster and returns the report.
func Run(name string, cfg Config) (Report, error) {
	rep, _, err := run(name, cfg)
	return rep, err
}

// TracedRun executes the workload with tracing forced on and also
// returns the Chrome trace-event export of every recorded span, for the
// CI artifact and for loading a bench run into Perfetto.
func TracedRun(name string, cfg Config) (Report, []byte, error) {
	cfg.Trace = true
	return run(name, cfg)
}

func run(name string, cfg Config) (Report, []byte, error) {
	c, err := cluster.New(cfg.Nodes, cluster.Options{})
	if err != nil {
		return Report{}, nil, err
	}
	defer c.Close()
	c.SetTracing(cfg.Trace)

	rep := Report{Name: name, GoVersion: runtime.Version(), Config: cfg}
	start := time.Now()
	switch name {
	case "wordcount":
		err = runWordCount(c, cfg, &rep)
	case "kmeans":
		err = runKMeans(c, cfg, &rep)
	default:
		err = fmt.Errorf("benchrun: unknown workload %q (want wordcount or kmeans)", name)
	}
	if err != nil {
		return Report{}, nil, err
	}
	rep.WallMS = ms(time.Since(start))
	rep.CacheHitRatio = c.CacheStats().HitRatio()
	fillStages(c, &rep)

	var chrome []byte
	if cfg.Trace {
		spans, dropped, err := c.TraceSpans("") // every job of the run
		if err != nil {
			return Report{}, nil, err
		}
		rep.TraceSpans = len(spans)
		rep.TraceDropped = dropped
		if chrome, err = trace.ChromeTrace(spans); err != nil {
			return Report{}, nil, err
		}
	}
	return rep, chrome, nil
}

// Overhead runs the same workload untraced and traced on identical
// configs and reports the wall-time cost of tracing in percent. The
// traced run's Chrome export rides along so one call produces both the
// EXPERIMENTS.md delta and the trace.json artifact.
type OverheadReport struct {
	Untraced Report  `json:"untraced"`
	Traced   Report  `json:"traced"`
	DeltaPct float64 `json:"delta_pct"`
}

func Overhead(name string, cfg Config) (OverheadReport, []byte, error) {
	cfg.Trace = false
	untraced, _, err := run(name, cfg)
	if err != nil {
		return OverheadReport{}, nil, err
	}
	traced, chrome, err := TracedRun(name, cfg)
	if err != nil {
		return OverheadReport{}, nil, err
	}
	rep := OverheadReport{Untraced: untraced, Traced: traced}
	if untraced.WallMS > 0 {
		rep.DeltaPct = (traced.WallMS - untraced.WallMS) / untraced.WallMS * 100
	}
	return rep, chrome, nil
}

func runWordCount(c *cluster.Cluster, cfg Config, rep *Report) error {
	text := workloads.Text(cfg.Seed, cfg.Bytes, 2000)
	if _, err := c.UploadRecords("bench.txt", "bench", dhtfs.PermPublic, text, '\n'); err != nil {
		return err
	}
	for j := 0; j < cfg.Jobs; j++ {
		jobStart := time.Now()
		res, err := c.Run(mapreduce.JobSpec{
			ID: fmt.Sprintf("bench-wc-%d", j), App: apps.WordCount,
			Inputs: []string{"bench.txt"}, User: "bench",
		})
		if err != nil {
			return err
		}
		if len(res.OutputFiles) == 0 {
			return fmt.Errorf("benchrun: wordcount job %d produced no output", j)
		}
		rep.JobMS = append(rep.JobMS, ms(time.Since(jobStart)))
	}
	return nil
}

func runKMeans(c *cluster.Cluster, cfg Config, rep *Report) error {
	// ~48 bytes per generated point line keeps Bytes roughly honest.
	n := cfg.Bytes / 48
	if n < 64 {
		n = 64
	}
	data, centers := workloads.Points(cfg.Seed, n, 4, 4)
	if _, err := c.UploadRecords("points.txt", "bench", dhtfs.PermPublic, data, '\n'); err != nil {
		return err
	}
	res, err := apps.RunKMeans(c, "points.txt", "bench", centers, cfg.Iterations, true)
	if err != nil {
		return err
	}
	for _, d := range res.IterationTimes {
		rep.JobMS = append(rep.JobMS, ms(d))
	}
	return nil
}

// fillStages reduces the cluster-merged snapshot: every non-empty
// histogram becomes a Stage row and every counter/gauge is carried
// through so regressions in, say, retry counts are visible next to the
// latency shifts they cause.
func fillStages(c *cluster.Cluster, rep *Report) {
	snap := c.MetricsSnapshot()
	rep.Counters = make(map[string]int64, len(snap.Values))
	for name, v := range snap.Values {
		rep.Counters[name] = v
	}
	rep.Stages = make(map[string]Stage, len(snap.Hists))
	for name, h := range snap.Hists {
		n := h.Count()
		if n == 0 {
			continue
		}
		rep.Stages[name] = Stage{
			Count:  n,
			P50MS:  ms(time.Duration(h.Quantile(0.50))),
			P90MS:  ms(time.Duration(h.Quantile(0.90))),
			P99MS:  ms(time.Duration(h.Quantile(0.99))),
			MeanMS: ms(time.Duration(int64(h.Mean()))),
		}
	}
	rep.BytesShuffled = rep.Counters["mr.shuffle.bytes"]
	rep.ShuffleBatches = rep.Counters["mr.shuffle.batches"]
	rep.ShuffleSendP99MS = rep.Stages["mr.shuffle.send_ns"].P99MS
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// WriteJSON writes a report (Report or OverheadReport) to path,
// pretty-printed with sorted keys so reports diff cleanly between PRs.
func WriteJSON(path string, rep interface{}) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// StageNames returns the report's stage names sorted, for stable output.
func StageNames(rep Report) []string {
	names := make([]string, 0, len(rep.Stages))
	for name := range rep.Stages {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
