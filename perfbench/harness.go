package main

import (
	"context"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"eclipsemr/internal/cluster"
	"eclipsemr/internal/metrics"
)

// options are one run's settings from the command line.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// maxRounds, when > 0, ends each measured phase after that many
	// rounds whatever the time (the self-tests use it).
	maxRounds int
}

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	params            any
}

// meter accounts a timed region: the union of job intervals. Work
// between jobs (output checks, clean-up) is outside it.
type meter struct {
	jobMS   []float64 // one entry per interval: ms per job
	jobs    int
	wall    time.Duration
	cpu     time.Duration
	alloc   uint64
	gcs     uint32
	inBytes float64

	heap  *heapSampler
	probe *layerProbe // set in the traced phase only
}

type mark struct {
	at    time.Time
	cpu   time.Duration
	alloc uint64
	gcs   uint32
}

func (m *meter) begin() mark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mk := mark{cpu: processCPU(), alloc: ms.TotalAlloc, gcs: ms.NumGC}
	if m.probe != nil {
		m.probe.begin()
	}
	m.heap.active.Store(true)
	m.heap.sample()
	mk.at = time.Now()
	return mk
}

// end closes an interval that covered jobs jobs reading inBytes of input.
func (m *meter) end(mk mark, jobs int, inBytes int64) {
	d := time.Since(mk.at)
	m.heap.sample()
	m.heap.active.Store(false)
	if m.probe != nil {
		m.probe.end()
	}
	cpu := processCPU()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.jobMS = append(m.jobMS, msOf(d)/float64(jobs))
	m.jobs += jobs
	m.wall += d
	m.cpu += cpu - mk.cpu
	m.alloc += ms.TotalAlloc - mk.alloc
	m.gcs += ms.NumGC - mk.gcs
	m.inBytes += float64(inBytes)
}

// endToEnd derives the end-to-end metrics of the region.
func (m *meter) endToEnd(setups []float64) map[string]float64 {
	jobs := float64(m.jobs)
	return map[string]float64{
		"job_ms":            median(m.jobMS),
		"input_mb_s":        ratio(m.inBytes/(1<<20), m.wall.Seconds()),
		"cpu_ms_per_job":    ratio(msOf(m.cpu), jobs),
		"alloc_mb_per_job":  ratio(float64(m.alloc)/(1<<20), jobs),
		"heap_live_peak_mb": m.heap.peakMB(),
		"setup_s":           median(setups),
	}
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler records /gc/heap/live:bytes, the live heap as of the last
// GC cycle, once per cycle that ends while a job is in flight. The peak
// it reports is the 99th percentile of those values: a small heap (the
// simulator's) otherwise reads high by whatever the program happened to
// allocate during one concurrent mark, which counts as live.
type heapSampler struct {
	active atomic.Bool
	stop   chan struct{}
	wg     sync.WaitGroup

	mu    sync.Mutex
	cycle uint64
	live  []float64 // MiB, one per GC cycle seen
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				if h.active.Load() {
					h.sample()
				}
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []rtmetrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	h.mu.Lock()
	defer h.mu.Unlock()
	if c := s[0].Value.Uint64(); c != h.cycle {
		h.cycle = c
		h.live = append(h.live, float64(s[1].Value.Uint64())/(1<<20))
	}
}

// reset forgets the values of earlier phases.
func (h *heapSampler) reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.live = nil
}

// peakMB is the 99th percentile of the live heap over the cycles seen.
func (h *heapSampler) peakMB() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return quantile(h.live, 0.99)
}

// close stops the sampling goroutine and waits for it.
func (h *heapSampler) close() {
	close(h.stop)
	h.wg.Wait()
}

// asHarness runs benchmark-only work (checks, clean-up, collection)
// under a profiler label, so CPU attribution can leave it out.
func asHarness(f func()) {
	//lint:ignore ctxflow the benchmark roots its own call tree; the context only carries the profiler label
	pprof.Do(context.Background(), pprof.Labels(harnessLabel, "harness"), func(context.Context) { f() })
}

// counterNames are the cluster counters summed per job.
var counterNames = []string{
	"fs.bytes.written", "fs.bytes.read",
	"mr.shuffle.bytes", "mr.shuffle.batches", "mr.shuffle.spills", "mr.reduce.keys",
	"mr.driver.map_retries", "mr.driver.map_failovers", "mr.driver.reduce_failovers",
}

// histNames are the stage histograms whose summed time is reported per
// job, keyed by the reported metric.
var histNames = map[string]string{
	"mapreduce.map.read_ms":       "mr.map.read_ns",
	"mapreduce.map.compute_ms":    "mr.map.compute_ns",
	"mapreduce.shuffle.send_ms":   "mr.shuffle.send_ns",
	"mapreduce.shuffle.recv_ms":   "mr.shuffle.recv_ns",
	"mapreduce.reduce.compute_ms": "mr.reduce.compute_ns",
	"mapreduce.reduce.write_ms":   "mr.reduce.write_ns",
}

// spanNames are the spans whose self time is reported per job.
var spanNames = map[string]string{
	"span.driver.job.self_ms":     "driver.job",
	"span.map.compute.self_ms":    "map.compute",
	"span.shuffle.send.self_ms":   "shuffle.send",
	"span.reduce.compute.self_ms": "reduce.compute",
	"span.reduce.write.self_ms":   "reduce.write",
	"span.fs.write_block.self_ms": "fs.write_block",
	"span.fs.read_block.self_ms":  "fs.read_block",
}

// layerProbe reads the cluster's own instrumentation around each job of
// the traced phase and sums the per-job differences.
type layerProbe struct {
	c   *cluster.Cluster
	net *timingNet

	at        map[string]float64
	atWait    metrics.HistSnapshot
	sum       map[string]float64
	queueWait metrics.HistSnapshot
	selfNS    map[string]int64
}

func newLayerProbe(c *cluster.Cluster, net *timingNet) *layerProbe {
	return &layerProbe{c: c, net: net, sum: map[string]float64{}, selfNS: map[string]int64{}}
}

// state reads the cumulative values the probe differences.
func (p *layerProbe) state() (map[string]float64, metrics.HistSnapshot) {
	snap := p.c.MetricsSnapshot()
	v := make(map[string]float64, len(counterNames)+len(histNames)+8)
	for _, name := range counterNames {
		v[name] = float64(snap.Values[name])
	}
	for _, name := range histNames {
		v[name] = float64(snap.Hists[name].Sum)
	}
	for _, id := range p.c.Nodes() {
		n, ok := p.c.Node(id)
		if !ok {
			continue
		}
		ic, oc := n.Cache().ICache.Stats(), n.Cache().OCache.Stats()
		v["cache.hits"] += float64(ic.Hits + oc.Hits)
		v["cache.misses"] += float64(ic.Misses + oc.Misses)
		v["cache.evictions"] += float64(ic.Evictions + oc.Evictions)
		v["cache.icache.hits"] += float64(ic.Hits)
		v["cache.ocache.hits"] += float64(oc.Hits)
	}
	st := p.c.Scheduler().Stats()
	v["sched.assigned"] = float64(st.Assigned)
	v["sched.local"] = float64(st.LocalAssigns)
	return v, snap.Hists["sched.queue_wait_ns"]
}

func (p *layerProbe) begin() {
	p.at, p.atWait = p.state()
	p.net.recording.Store(true)
}

func (p *layerProbe) end() {
	p.net.recording.Store(false)
	now, wait := p.state()
	for k, v := range now {
		p.sum[k] += v - p.at[k]
	}
	p.queueWait = addHist(p.queueWait, wait, p.atWait)
}

// addHist returns acc + (now - then), bucket by bucket.
func addHist(acc, now, then metrics.HistSnapshot) metrics.HistSnapshot {
	if len(now.Counts) == 0 {
		return acc
	}
	if len(acc.Counts) == 0 {
		acc = metrics.HistSnapshot{Bounds: now.Bounds, Counts: make([]int64, len(now.Counts))}
	}
	for i, c := range now.Counts {
		if i < len(then.Counts) {
			c -= then.Counts[i]
		}
		acc.Counts[i] += c
	}
	acc.Sum += now.Sum - then.Sum
	return acc
}

// collectSpans adds the self times of one finished job's spans.
func (p *layerProbe) collectSpans(job string) {
	spans, _, err := p.c.TraceSpans(job)
	if err != nil {
		return
	}
	for name, ns := range selfTimes(spans) {
		p.selfNS[name] += ns
	}
}

// layerMetrics turns the probe's sums into per-job per-layer metrics.
func (p *layerProbe) layerMetrics(jobs int) map[string]float64 {
	n := float64(jobs)
	s := p.sum
	out := map[string]float64{
		"dhtfs.bytes_written":         ratio(s["fs.bytes.written"], n),
		"dhtfs.bytes_read":            ratio(s["fs.bytes.read"], n),
		"mapreduce.shuffle.bytes":     ratio(s["mr.shuffle.bytes"], n),
		"mapreduce.shuffle.batches":   ratio(s["mr.shuffle.batches"], n),
		"mapreduce.shuffle.spills":    ratio(s["mr.shuffle.spills"], n),
		"mapreduce.reduce.keys":       ratio(s["mr.reduce.keys"], n),
		"mapreduce.retries":           ratio(s["mr.driver.map_retries"]+s["mr.driver.map_failovers"]+s["mr.driver.reduce_failovers"], n),
		"cache.hit_ratio":             ratio(s["cache.hits"], s["cache.hits"]+s["cache.misses"]),
		"cache.lookups":               s["cache.hits"] + s["cache.misses"],
		"cache.icache.hits":           ratio(s["cache.icache.hits"], n),
		"cache.ocache.hits":           ratio(s["cache.ocache.hits"], n),
		"cache.evictions":             ratio(s["cache.evictions"], n),
		"scheduler.locality_ratio":    ratio(s["sched.local"], s["sched.assigned"]),
		"scheduler.assigned":          s["sched.assigned"],
		"scheduler.queue_wait_p50_ms": float64(p.queueWait.Quantile(0.5)) / 1e6,
	}
	for metric, hist := range histNames {
		out[metric] = ratio(s[hist]/1e6, n)
	}
	for metric, span := range spanNames {
		out[metric] = ratio(float64(p.selfNS[span])/1e6, n)
	}
	for k, v := range p.transportMetrics(n) {
		out[k] = v
	}
	return out
}

// transportMetrics reduces the timing wrapper's totals.
func (p *layerProbe) transportMetrics(jobs float64) map[string]float64 {
	totals := p.net.totals()
	out := map[string]float64{
		"transport.cluster.ping.calls": ratio(float64(totals["cluster.ping"].Calls), jobs),
	}
	var calls, bytes, errs float64
	for method, t := range totals {
		if method == "cluster.ping" {
			continue
		}
		calls += float64(t.Calls)
		bytes += float64(t.Bytes)
		errs += float64(t.Errors)
	}
	out["transport.calls"] = ratio(calls, jobs)
	out["transport.bytes"] = ratio(bytes, jobs)
	out["transport.errors"] = ratio(errs, jobs)
	for _, m := range []string{"putBlock", "getBlock", "appendSegmentBatch", "readTaggedSegmentsRaw"} {
		t := totals["fs."+m]
		out["transport.fs."+m+".busy_ms"] = ratio(msOf(t.Busy), jobs)
		out["transport.fs."+m+".calls"] = ratio(float64(t.Calls), jobs)
	}
	runMap := durationsMS(totals["mr.runMap"].Durations)
	pct := tailPercentile(len(runMap))
	out["transport.mr.runMap.samples"] = float64(len(runMap))
	out["transport.mr.runMap.p50_ms"] = quantile(runMap, 0.5)
	out["transport.mr.runMap.tail_pct"] = pct
	out["transport.mr.runMap.tail_ms"] = quantile(runMap, pct/100)
	out["transport.mr.runReduce.p50_ms"] = quantile(durationsMS(totals["mr.runReduce"].Durations), 0.5)
	return out
}

// tailPercentile is the highest of p50, p90, p99 and p99.9 that has at
// least ten of n samples beyond it (p50 when none has).
func tailPercentile(n int) float64 {
	pct := 50.0
	for _, p := range []float64{90, 99, 99.9} {
		if float64(n)*(1-p/100) >= 10 {
			pct = p
		}
	}
	return pct
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = msOf(d)
	}
	return out
}

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
