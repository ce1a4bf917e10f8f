package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"time"

	"eclipsemr/internal/apps"
	"eclipsemr/internal/cluster"
	"eclipsemr/internal/dhtfs"
	"eclipsemr/internal/mapreduce"
	"eclipsemr/internal/transport"
	"eclipsemr/internal/workloads"
)

const (
	inputFile = "perfbench.in"
	user      = "perfbench"
)

// engineParams size an engine workload.
type engineParams struct {
	App        string `json:"app"`
	Nodes      int    `json:"nodes"`
	InputBytes int    `json:"input_bytes"`
	// CacheBytes is the per-node iCache+oCache capacity (0 keeps the
	// cluster default of 64 MiB).
	CacheBytes int64 `json:"cache_bytes_per_node"`
	BlockSize  int   `json:"block_size"`
	Vocabulary int   `json:"vocabulary,omitempty"`
	RecordLen  int   `json:"record_len,omitempty"`
	K          int   `json:"k,omitempty"`
	Dim        int   `json:"dim,omitempty"`
	// Iterations is the k-means iterations per round (one RunKMeans
	// call, checked as a whole).
	Iterations int `json:"iterations_per_round,omitempty"`
	// Setups is how often cluster boot, input generation and upload are
	// repeated; setup_s is their median.
	Setups int    `json:"setups"`
	Why    string `json:"why"`
}

// engineWorkload is one workload on the real in-process engine.
type engineWorkload struct {
	params   engineParams
	generate func(p engineParams, seed int64) []byte
	// prepare builds the sequential reference from the input and returns
	// the workload's round: one closed-loop step that runs, checks and
	// cleans up its jobs.
	prepare func(p engineParams, input []byte) (func(*engineEnv), error)
}

var engineWorkloads = map[string]engineWorkload{
	"wordcount": {
		params: engineParams{
			App: apps.WordCount, Nodes: 4, InputBytes: 4 << 20, BlockSize: 256 << 10,
			Vocabulary: 2000, Setups: 3,
			Why: "combiner-bound: the input fits in iCache and repeated jobs hit it; little shuffle",
		},
		generate: func(p engineParams, seed int64) []byte {
			return workloads.Text(seed, p.InputBytes, p.Vocabulary)
		},
		prepare: func(p engineParams, input []byte) (func(*engineEnv), error) {
			want := wordCounts(input)
			return func(e *engineEnv) {
				spec := e.spec(apps.WordCount)
				res, err := e.run(spec)
				asHarness(func() {
					if err == nil {
						var kvs []mapreduce.KV
						if kvs, err = e.c.Collect(res, user); err == nil {
							err = checkWordCount(kvs, want)
						}
					}
					e.settle([]mapreduce.JobSpec{spec}, []mapreduce.Result{res}, err)
				})
			}, nil
		},
	},
	"sort": {
		params: engineParams{
			App: apps.Sort, Nodes: 4, InputBytes: 4 << 20, BlockSize: 256 << 10,
			CacheBytes: 128 << 10, RecordLen: 10, Setups: 3,
			Why: "every record crosses the shuffle and is written back with 3 replicas; the cache is smaller than a block, so reads miss it",
		},
		generate: func(p engineParams, seed int64) []byte {
			return workloads.Records(seed, p.InputBytes/(p.RecordLen+1), p.RecordLen)
		},
		prepare: func(p engineParams, input []byte) (func(*engineEnv), error) {
			want := sortedRecords(input)
			return func(e *engineEnv) {
				spec := e.spec(apps.Sort)
				res, err := e.run(spec)
				asHarness(func() {
					if err == nil {
						var parts [][]mapreduce.KV
						if parts, err = e.partitions(res); err == nil {
							err = checkSort(parts, want)
						}
					}
					e.settle([]mapreduce.JobSpec{spec}, []mapreduce.Result{res}, err)
				})
			}, nil
		},
	},
	"kmeans": {
		params: engineParams{
			App: apps.KMeans, Nodes: 4, InputBytes: 8 << 20, BlockSize: 256 << 10,
			K: 4, Dim: 4, Iterations: 5, Setups: 3,
			Why: "the iterative path: iCache re-reads, oCache outputs and a Collect per iteration; the shuffle collapses to k keys",
		},
		generate: func(p engineParams, seed int64) []byte {
			// A generated line is about 30 bytes.
			data, _ := workloads.Points(seed, p.InputBytes/30, p.Dim, p.K)
			return data
		},
		prepare: func(p engineParams, input []byte) (func(*engineEnv), error) {
			pts, err := parsePoints(input, p.Dim)
			if err != nil {
				return nil, err
			}
			if len(pts) < p.K*p.Dim {
				return nil, fmt.Errorf("kmeans: %d points, need at least k=%d", len(pts)/p.Dim, p.K)
			}
			// The first k points start the centres (Forgy).
			init := make([][]float64, p.K)
			for c := range init {
				init[c] = pts[c*p.Dim : (c+1)*p.Dim]
			}
			want := lloyd(pts, p.Dim, init, p.Iterations)
			return func(e *engineEnv) {
				r := &kmeansRunner{e: e}
				res, err := apps.RunKMeans(r, inputFile, user, init, p.Iterations, true)
				asHarness(func() {
					if err == nil {
						err = checkCentroids(res.Centroids, want)
					}
					e.settle(r.specs, r.results, err)
				})
			}, nil
		},
	},
}

// engineEnv is the state a round works on.
type engineEnv struct {
	c       *cluster.Cluster
	inBytes int64
	meter   *meter // nil outside measured phases
	stderr  io.Writer

	seq               int
	attempted, failed int
}

func (e *engineEnv) spec(app string) mapreduce.JobSpec {
	e.seq++
	return mapreduce.JobSpec{
		ID: fmt.Sprintf("%s-%d", app, e.seq), App: app,
		Inputs: []string{inputFile}, User: user,
	}
}

// run executes one job, inside the timed region when a phase is measured.
func (e *engineEnv) run(spec mapreduce.JobSpec) (mapreduce.Result, error) {
	e.attempted++
	if e.meter == nil {
		return e.c.Run(spec)
	}
	mk := e.meter.begin()
	res, err := e.c.Run(spec)
	e.meter.end(mk, 1, e.inBytes)
	if p := e.meter.probe; p != nil {
		asHarness(func() { p.collectSpans(spec.ID) })
	}
	return res, err
}

// partitions reads each output file separately, in partition order.
func (e *engineEnv) partitions(res mapreduce.Result) ([][]mapreduce.KV, error) {
	var parts [][]mapreduce.KV
	for _, f := range res.OutputFiles {
		data, err := e.c.ReadFile(f, user)
		if err != nil {
			return nil, err
		}
		kvs, err := mapreduce.DecodeKVs(data)
		if err != nil {
			return nil, err
		}
		parts = append(parts, kvs)
	}
	return parts, nil
}

// settle records a round's verdict and returns the cluster to its
// pre-round state: output files deleted and intermediates dropped, so
// the in-memory file system does not grow with run length.
func (e *engineEnv) settle(specs []mapreduce.JobSpec, results []mapreduce.Result, err error) {
	if err != nil {
		e.failed += len(specs)
		fmt.Fprintf(e.stderr, "perfbench: %s: %v\n", specs[len(specs)-1].ID, err)
	}
	for i, spec := range specs {
		if i < len(results) {
			for _, f := range results[i].OutputFiles {
				if derr := e.c.DeleteFile(f, user); derr != nil {
					fmt.Fprintf(e.stderr, "perfbench: delete %s: %v\n", f, derr)
				}
			}
		}
		e.c.DropIntermediates(spec)
	}
	// The next round starts from the same heap, without the check's
	// garbage.
	runtime.GC()
}

// kmeansRunner feeds apps.RunKMeans: each iteration gets a run-unique
// job ID and is timed as one job.
type kmeansRunner struct {
	e       *engineEnv
	specs   []mapreduce.JobSpec
	results []mapreduce.Result
}

func (r *kmeansRunner) Run(spec mapreduce.JobSpec) (mapreduce.Result, error) {
	r.e.seq++
	spec.ID = fmt.Sprintf("%s-%d", spec.App, r.e.seq)
	res, err := r.e.run(spec)
	r.specs = append(r.specs, spec)
	r.results = append(r.results, res)
	return res, err
}

func (r *kmeansRunner) Collect(res mapreduce.Result, user string) ([]mapreduce.KV, error) {
	return r.e.c.Collect(res, user)
}

// runEngine sets the workload up, runs one unmeasured warm-up round and
// then measures rounds for the run's duration: all of it untraced, or
// with -trace, half untraced and half traced and profiled.
func runEngine(w engineWorkload, o options, stderr io.Writer) (outcome, error) {
	p := w.params
	var (
		c      *cluster.Cluster
		net    *timingNet
		input  []byte
		setups []float64
	)
	for i := 0; i < p.Setups; i++ {
		if c != nil {
			c.Close()
			runtime.GC()
		}
		start := time.Now()
		var err error
		net = newTimingNet(transport.NewLocal())
		c, err = cluster.New(p.Nodes, cluster.Options{
			Network: net,
			Config:  cluster.Config{CacheBytes: p.CacheBytes, BlockSize: p.BlockSize},
		})
		if err != nil {
			return outcome{}, err
		}
		input = w.generate(p, o.seed)
		if _, err := c.UploadRecords(inputFile, user, dhtfs.PermPublic, input, '\n'); err != nil {
			c.Close()
			return outcome{}, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer c.Close()
	round, err := w.prepare(p, input)
	if err != nil {
		return outcome{}, err
	}
	e := &engineEnv{c: c, inBytes: int64(len(input)), stderr: stderr}
	input = nil
	heap := startHeapSampler()
	defer heap.close()

	round(e) // warm-up: fills the caches, not measured
	measure := func(d time.Duration, probe *layerProbe) *meter {
		heap.reset()
		e.meter = &meter{heap: heap, probe: probe}
		defer func() { e.meter = nil }()
		start := time.Now()
		for rounds := 1; ; rounds++ {
			round(e)
			if o.maxRounds > 0 && rounds >= o.maxRounds || o.maxRounds == 0 && time.Since(start) >= d {
				return e.meter
			}
		}
	}
	if !o.trace {
		m := measure(o.seconds, nil)
		return outcome{attempted: e.attempted, failed: e.failed, metrics: m.endToEnd(setups), params: p}, nil
	}

	untraced := measure(o.seconds/2, nil)
	c.SetTracing(true)
	probe := newLayerProbe(c, net)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return outcome{}, err
	}
	traced := measure(o.seconds/2, probe)
	pprof.StopCPUProfile()
	c.SetTracing(false)

	out := probe.layerMetrics(traced.jobs)
	if err := addCPU(out, prof.Bytes()); err != nil {
		return outcome{}, err
	}
	out["gc.cycles"] = ratio(float64(traced.gcs), float64(traced.jobs))
	out["trace.overhead_pct"] = (ratio(median(traced.jobMS), median(untraced.jobMS)) - 1) * 100
	out["job_error_rate"] = ratio(float64(e.failed), float64(e.attempted))
	return outcome{attempted: e.attempted, failed: e.failed, metrics: out, params: p}, nil
}

// addCPU attributes a CPU profile to layers and adds the shares and
// their base.
func addCPU(out map[string]float64, prof []byte) error {
	samples, err := parseProfile(prof)
	if err != nil {
		return err
	}
	shares, total := attributeCPU(samples)
	for k, v := range shares {
		out[k] = v
	}
	out["cpu.samples"] = float64(total)
	return nil
}
