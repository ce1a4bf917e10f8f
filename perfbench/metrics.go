package main

// metricDecl declares one reported metric. The same names, units and
// directions are declared in BENCHMARK.json at the repository root;
// TestDeclarationsMatchBenchmarkJSON keeps the two in step.
type metricDecl struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Moves names, for a per-layer metric, the end-to-end metric it
	// should move and on which workload.
	Moves string `json:"moves,omitempty"`
}

// endToEnd are the metrics of an untraced run (--trace 0). Every workload
// reports all of them; sim_skew counts one simulated grep job as a job
// and times its batches as bestOf describes.
var endToEnd = []metricDecl{
	{Name: "job_ms", Unit: "ms", Better: "lower"},
	{Name: "input_mb_s", Unit: "MiB/s", Better: "higher"},
	{Name: "cpu_ms_per_job", Unit: "ms", Better: "lower"},
	{Name: "alloc_mb_per_job", Unit: "MiB", Better: "lower"},
	{Name: "heap_live_peak_mb", Unit: "MiB", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
}

// perLayer are the metrics of a traced run (--trace 1). A layer a
// workload does not exercise reads 0. cpu.* values are shares of
// cpu.samples; *_ms, bytes and count metrics are per job unless the
// name says it is a base (a total over the traced phase).
var perLayer = []metricDecl{
	{"cpu.samples", "count", "higher", "base of every cpu.* share"},
	{"job_error_rate", "ratio", "lower", "failed / attempted jobs; must be 0 on every workload"},
	{"trace.overhead_pct", "%", "lower", "traced job_ms against untraced job_ms"},

	// apps
	{"cpu.apps.map", "share", "lower", "cpu_ms_per_job, job_ms on kmeans (large) and wordcount (medium); small on sort"},
	{"cpu.apps.reduce", "share", "lower", "job_ms on sort"},

	// mapreduce
	{"cpu.mapreduce.combine", "share", "lower", "job_ms, cpu_ms_per_job, alloc_mb_per_job on wordcount; 0 on sort"},
	{"cpu.mapreduce.reduce_group", "share", "lower", "job_ms on sort; small on wordcount and kmeans"},
	{"cpu.mapreduce.codec", "share", "lower", "job_ms on sort"},
	{"mapreduce.map.read_ms", "ms", "lower", "job_ms on sort (cache misses) and kmeans"},
	{"mapreduce.map.compute_ms", "ms", "lower", "job_ms on wordcount and kmeans"},
	{"mapreduce.shuffle.send_ms", "ms", "lower", "job_ms on sort"},
	{"mapreduce.shuffle.recv_ms", "ms", "lower", "job_ms on sort"},
	{"mapreduce.reduce.compute_ms", "ms", "lower", "job_ms on sort"},
	{"mapreduce.reduce.write_ms", "ms", "lower", "job_ms on sort"},
	{"mapreduce.shuffle.bytes", "bytes", "lower", "job_ms on sort; exact count per job"},
	{"mapreduce.shuffle.batches", "count", "lower", "job_ms on sort; exact count per job"},
	{"mapreduce.shuffle.spills", "count", "lower", "job_ms on sort; exact count per job"},
	{"mapreduce.reduce.keys", "count", "lower", "job_ms on sort; exact count per job"},
	{"mapreduce.retries", "count", "lower", "wasted work; job_ms on every engine workload; should stay 0"},
	{"span.driver.job.self_ms", "ms", "lower", "job_ms on every engine workload"},
	{"span.map.compute.self_ms", "ms", "lower", "job_ms on wordcount and kmeans"},
	{"span.shuffle.send.self_ms", "ms", "lower", "job_ms on sort"},
	{"span.reduce.compute.self_ms", "ms", "lower", "job_ms on sort"},
	{"span.reduce.write.self_ms", "ms", "lower", "job_ms on sort"},

	// hashing
	{"cpu.hashing.key", "share", "lower", "cpu_ms_per_job on wordcount and sort; about 0 on sim_skew"},

	// dhtfs
	{"transport.fs.putBlock.busy_ms", "ms", "lower", "job_ms on sort; small on kmeans"},
	{"transport.fs.putBlock.calls", "count", "lower", "job_ms on sort; small on kmeans"},
	{"transport.fs.getBlock.busy_ms", "ms", "lower", "job_ms on sort; small on kmeans"},
	{"transport.fs.getBlock.calls", "count", "lower", "job_ms on sort; small on kmeans"},
	{"transport.fs.appendSegmentBatch.busy_ms", "ms", "lower", "job_ms on sort; small on kmeans"},
	{"transport.fs.appendSegmentBatch.calls", "count", "lower", "job_ms on sort; small on kmeans"},
	{"transport.fs.readTaggedSegmentsRaw.busy_ms", "ms", "lower", "job_ms on sort; small on kmeans"},
	{"transport.fs.readTaggedSegmentsRaw.calls", "count", "lower", "job_ms on sort; small on kmeans"},
	{"dhtfs.bytes_written", "bytes", "lower", "job_ms on sort; small on kmeans"},
	{"dhtfs.bytes_read", "bytes", "lower", "job_ms on sort; small on kmeans"},
	{"span.fs.write_block.self_ms", "ms", "lower", "job_ms on sort; small on kmeans"},
	{"span.fs.read_block.self_ms", "ms", "lower", "job_ms on sort; small on kmeans"},
	{"cpu.dhtfs", "share", "lower", "job_ms on sort; small on kmeans"},

	// cache
	{"cache.hit_ratio", "ratio", "higher", "job_ms on wordcount and kmeans; about 0 on sort by construction"},
	{"cache.lookups", "count", "higher", "base of cache.hit_ratio (hits + misses)"},
	{"cache.icache.hits", "count", "higher", "job_ms on wordcount and kmeans"},
	{"cache.ocache.hits", "count", "higher", "job_ms on kmeans"},
	{"cache.evictions", "count", "lower", "job_ms on wordcount and kmeans"},
	{"sim.hit_ratio.laf", "ratio", "higher", "sim_makespan_s.laf on sim_skew"},
	{"sim.hit_ratio.delay", "ratio", "higher", "sim_makespan_s.delay on sim_skew"},

	// scheduler / kde
	{"scheduler.locality_ratio", "ratio", "higher", "job_ms on the engine workloads (the simulator does not expose its scheduler)"},
	{"scheduler.assigned", "count", "higher", "base of scheduler.locality_ratio"},
	{"scheduler.queue_wait_p50_ms", "ms", "lower", "job_ms on the engine workloads"},
	{"cpu.scheduler", "share", "lower", "job_ms and sim_wall_ms.* on sim_skew; under 1% on the engine workloads"},
	{"cpu.kde", "share", "lower", "job_ms and sim_wall_ms.laf on sim_skew"},

	// transport
	{"transport.calls", "count", "lower", "job_ms on every engine workload (heartbeats excluded)"},
	{"transport.bytes", "bytes", "lower", "job_ms on sort (request + reply bytes)"},
	{"transport.errors", "count", "lower", "job_error_rate; should stay 0"},
	{"transport.cluster.ping.calls", "count", "lower", "heartbeats per job; background load"},
	{"transport.mr.runMap.samples", "count", "higher", "base of the runMap percentiles"},
	{"transport.mr.runMap.p50_ms", "ms", "lower", "job_ms on every engine workload"},
	{"transport.mr.runMap.tail_pct", "%", "higher", "highest percentile with at least 10 samples beyond it"},
	{"transport.mr.runMap.tail_ms", "ms", "lower", "job_ms on every engine workload (slowest map sets the phase)"},
	{"transport.mr.runReduce.p50_ms", "ms", "lower", "job_ms on sort"},
	{"cpu.transport.codec", "share", "lower", "cpu_ms_per_job on kmeans"},

	// sim / simcluster
	{"cpu.sim.flownet", "share", "lower", "job_ms and sim_wall_ms.* on sim_skew"},
	{"cpu.sim.events", "share", "lower", "job_ms and sim_wall_ms.* on sim_skew"},
	{"cpu.simcluster", "share", "lower", "job_ms and sim_wall_ms.* on sim_skew"},
	{"sim_wall_ms.laf", "ms", "lower", "job_ms on sim_skew (untraced half of the run)"},
	{"sim_wall_ms.delay", "ms", "lower", "job_ms on sim_skew (untraced half of the run)"},
	{"sim_makespan_s.laf", "s", "lower", "Fig 7a; deterministic per seed: a speed-up must leave it bit-identical"},
	{"sim_makespan_s.delay", "s", "lower", "Fig 7a; deterministic per seed: a speed-up must leave it bit-identical"},

	// runtime
	{"cpu.runtime.gc", "share", "lower", "alloc_mb_per_job and cpu_ms_per_job on every workload"},
	{"gc.cycles", "count", "lower", "alloc_mb_per_job and cpu_ms_per_job on every workload"},
}
