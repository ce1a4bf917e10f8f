// Command perfbench is the repository benchmark. It runs one named
// workload in a closed loop (one client, one job outstanding) through the
// public cluster, simcluster and apps API, checks every job's output
// against a sequential reference, and prints the metrics declared in
// BENCHMARK.json: the end-to-end metrics untraced (-trace 0), or the
// per-layer metrics from a traced and profiled run (-trace 1). The last
// line of standard output is the result as one JSON object; the line
// before it is the run record (host, seed, workload parameters, and the
// end-to-end metric each per-layer metric should move). A readable table
// goes to standard error.
//
//	go build -o perfbench . && ./perfbench -workload wordcount -seed 1 -seconds 20 -trace 0
//
// Workloads: wordcount, sort and kmeans on a 4-node in-process cluster,
// and sim_skew on the simulated 40-node testbed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

var workloadNames = []string{"wordcount", "sort", "kmeans", "sim_skew"}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "one of "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 20, "measured time of the run")
	traced := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced, profiled run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1 and -seconds positive")
		return 2
	}
	o := options{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *traced == 1}
	res, err := runWorkload(*workload, o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := report(stdout, stderr, *workload, o, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func runWorkload(name string, o options, stderr io.Writer) (outcome, error) {
	if name == "sim_skew" {
		return runSim(simSkew, o, stderr)
	}
	w, ok := engineWorkloads[name]
	if !ok {
		return outcome{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	return runEngine(w, o, stderr)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
}

type runRecord struct {
	Host     host         `json:"host"`
	Workload string       `json:"workload"`
	Seed     int64        `json:"seed"`
	Seconds  float64      `json:"seconds"`
	Trace    bool         `json:"trace"`
	Load     string       `json:"load"`
	Params   any          `json:"params"`
	Metrics  []metricDecl `json:"metrics"`
}

// report prints the table, the run record and, last, the result line.
// Every declared metric must have been measured.
func report(stdout, stderr io.Writer, workload string, o options, res outcome) error {
	decls := endToEnd
	if o.trace {
		decls = perLayer
	}
	out := result{
		Correct:   res.failed == 0 && res.attempted > 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metricValue, len(decls)),
	}
	for _, d := range decls {
		v, ok := res.metrics[d.Name]
		if !ok && !o.trace {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		// A layer the workload does not run reads 0.
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(stderr, "%-44s %14.6g %-6s %-6s %s\n", d.Name, v, d.Unit, d.Better, d.Moves)
	}
	var extra []string
	for name := range res.metrics {
		if _, ok := out.Metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return errors.New("undeclared metrics measured: " + strings.Join(extra, ", "))
	}
	rec := runRecord{
		Host: host{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			CPUModel: cpuModel(), GoVersion: runtime.Version(),
		},
		Workload: workload, Seed: o.seed, Seconds: o.seconds.Seconds(), Trace: o.trace,
		Load:    "closed loop: one client, one job outstanding",
		Params:  res.params,
		Metrics: decls,
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]runRecord{"run_record": rec}); err != nil {
		return err
	}
	return enc.Encode(out)
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
