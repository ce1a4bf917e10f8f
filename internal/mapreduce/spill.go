package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"eclipsemr/internal/dhtfs"
	"eclipsemr/internal/events"
	"eclipsemr/internal/hashing"
	"eclipsemr/internal/metrics"
	"eclipsemr/internal/transport"
)

// spillWindow bounds the async shuffle pipeline per map task: at most
// spillWindow encoded spills queued for the sender plus one batch of at
// most spillWindow spills in flight, so emit blocks (backpressure) once
// 2*spillWindow spills are unacknowledged.
const spillWindow = 4

// spillBufPool recycles per-partition emit buffers across spills and map
// tasks, replacing the per-KV value clone the emit path used to pay.
var spillBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 64<<10)
		return &b
	},
}

func getSpillBuf() *[]byte {
	b := spillBufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

func putSpillBuf(b *[]byte) {
	if b != nil {
		spillBufPool.Put(b)
	}
}

// spillJob is one full emit buffer handed to the sender. seq was assigned
// at hand-off in emit order, so the single sender goroutine preserves the
// per-partition sequence the dedup layer expects.
type spillJob struct {
	part int
	seq  int
	buf  *[]byte
}

// spillSender is the asynchronous half of the proactive shuffle (§II-D):
// one goroutine per map task drains full spill buffers while app.Map
// keeps computing, applies the map-side combiner, coalesces spills that
// share a destination node into one PushTaggedSegmentBatch RPC, and
// joins every push error for the task end. Attempt/seq semantics are
// identical to the old inline path: seq is per-partition emit order and
// each spill must land on at least one of its targets.
type spillSender struct {
	w        *Worker
	req      RunMapReq
	combiner ReduceFunc
	inflight *metrics.Gauge

	jobs chan spillJob
	done chan struct{}

	// Owned by the sender goroutine; read by the task goroutine only
	// after finish() observes done closed.
	partBytes []int64
	errs      []error
	failed    bool
}

func (w *Worker) newSpillSender(ctx context.Context, req RunMapReq, combiner ReduceFunc) *spillSender {
	s := &spillSender{
		w:         w,
		req:       req,
		combiner:  combiner,
		inflight:  w.reg.Gauge("mr.shuffle.inflight"),
		jobs:      make(chan spillJob, spillWindow),
		done:      make(chan struct{}),
		partBytes: make([]int64, len(req.ReduceServers)),
	}
	go s.run(ctx)
	return s
}

// enqueue hands one full buffer to the sender, blocking when the
// in-flight window is full. The buffer is owned by the sender from here
// on and is recycled once its push completes.
func (s *spillSender) enqueue(part, seq int, buf *[]byte) {
	s.inflight.Add(1)
	s.jobs <- spillJob{part: part, seq: seq, buf: buf}
}

// finish closes the pipeline, waits for the sender to drain, and returns
// the per-partition byte accounting with every push error joined.
func (s *spillSender) finish() ([]int64, error) {
	close(s.jobs)
	<-s.done
	return s.partBytes, errors.Join(s.errs...)
}

func (s *spillSender) run(ctx context.Context) {
	defer close(s.done)
	for job := range s.jobs {
		batch := []spillJob{job}
		// Coalesce whatever else is already queued, so spills sharing a
		// target travel in one RPC instead of one RPC per (partition,
		// spill).
	drain:
		for len(batch) < spillWindow {
			select {
			case next, ok := <-s.jobs:
				if !ok {
					break drain
				}
				batch = append(batch, next)
			default:
				break drain
			}
		}
		s.send(ctx, batch)
		s.inflight.Add(-int64(len(batch)))
	}
}

// fail records a push error; the sender keeps draining (and discarding)
// so emit never blocks behind a doomed attempt.
func (s *spillSender) fail(err error) {
	s.errs = append(s.errs, err)
	s.failed = true
}

// send combines and pushes one batch of spills, grouped per destination
// node, then recycles the batch's buffers.
func (s *spillSender) send(ctx context.Context, batch []spillJob) {
	defer func() {
		for _, j := range batch {
			putSpillBuf(j.buf)
		}
	}()
	if s.failed {
		return // attempt already failed; just recycle
	}

	// Map-side combiner, per spill, before the bytes are batched. The
	// combined stream replaces the raw buffer (also pooled).
	if s.combiner != nil {
		for i := range batch {
			combined, err := combineStream(s.combiner, s.req.Params, *batch[i].buf)
			if err != nil {
				s.fail(err)
				return
			}
			putSpillBuf(batch[i].buf)
			batch[i].buf = combined
		}
	}

	// Group the batch per destination node, preserving first-appearance
	// order so the outbound call sequence is deterministic. targetIdx
	// remembers whether a node is a job's owner (0) or replica (1) for
	// the replica-spill accounting.
	type route struct {
		entries   []dhtfs.SegBatchEntry
		jobIdx    []int
		targetIdx []int
	}
	perNode := make(map[hashing.NodeID]*route)
	var order []hashing.NodeID
	stored := make([]int, len(batch))
	for i, j := range batch {
		entry := dhtfs.SegBatchEntry{
			Partition: partitionName(j.part),
			Tag:       dhtfs.SegTag{Task: s.req.Task, Attempt: s.req.Attempt, Seq: j.seq},
			Data:      *j.buf,
		}
		for ti, t := range s.targets(j.part) {
			r := perNode[t]
			if r == nil {
				r = &route{}
				perNode[t] = r
				order = append(order, t)
			}
			r.entries = append(r.entries, entry)
			r.jobIdx = append(r.jobIdx, i)
			r.targetIdx = append(r.targetIdx, ti)
		}
	}

	var lastErr error
	for _, node := range order {
		r := perNode[node]
		if err := s.push(ctx, node, r.entries); err != nil {
			if errors.Is(err, transport.ErrUnreachable) {
				// Skipped target: the reduce side unions the surviving
				// copies, as long as each spill landed somewhere.
				lastErr = err
				continue
			}
			s.fail(fmt.Errorf("mapreduce: spill batch of %d to %s: %w", len(r.entries), node, err))
			return
		}
		for k, i := range r.jobIdx {
			stored[i]++
			if r.targetIdx[k] > 0 {
				s.w.reg.Counter("mr.shuffle.replica_spills").Inc()
			}
		}
	}
	for i, n := range stored {
		if n == 0 {
			s.fail(fmt.Errorf("mapreduce: spill partition %d: no reachable target: %w", batch[i].part, lastErr))
			return
		}
	}
	for _, j := range batch {
		size := int64(len(*j.buf))
		s.partBytes[j.part] += size
		s.w.reg.Counter("mr.shuffle.spills").Inc()
		s.w.reg.Counter("mr.shuffle.bytes").Add(size)
	}
}

// targets lists the nodes one partition's spills must reach: the owner
// and, when the job replicates intermediates, the recorded replica.
func (s *spillSender) targets(part int) []hashing.NodeID {
	targets := []hashing.NodeID{s.req.ReduceServers[part]}
	if len(s.req.ReduceReplicas) == len(s.req.ReduceServers) {
		if r := s.req.ReduceReplicas[part]; r != "" && r != targets[0] {
			targets = append(targets, r)
		}
	}
	return targets
}

// push delivers one coalesced batch to one node. The legacy untracked
// path (Task "") keeps its one-append-per-spill wire semantics through
// the same batch method: the store appends unconditionally per entry.
func (s *spillSender) push(ctx context.Context, node hashing.NodeID, entries []dhtfs.SegBatchEntry) error {
	defer s.w.reg.Histogram("mr.shuffle.send_ns").Start().Stop()
	ctx, sp := s.w.tracer.StartSpan(ctx, "shuffle.send")
	defer sp.End()
	sp.Annotate("node", string(node))
	sp.Annotate("spills", fmt.Sprintf("%d", len(entries)))
	s.w.reg.Counter("mr.shuffle.batches").Inc()
	s.w.events.Emit(events.KindShuffle, "shuffle.batch", events.F{
		Job: s.req.Job, Task: s.req.Task, Attempt: s.req.Attempt,
		Detail: fmt.Sprintf("%s spills=%d", node, len(entries)),
	})
	return s.w.fs.PushTaggedSegmentBatch(ctx, node, s.req.Namespace, entries, s.req.TTL)
}

// combineStream runs the combiner over one encoded spill, returning a
// pooled buffer with the combined stream. It groups by hash without
// decoding to pairs: a key string is allocated only when the key first
// appears, and the values handed to the combiner alias data. Keys are
// combined in first-appearance order, taken from a slice rather than map
// iteration, so a retried attempt's combined spill is byte-identical.
func combineStream(fn ReduceFunc, params Params, data []byte) (*[]byte, error) {
	idx := make(map[string]int32)
	var keys []string
	var counts []int32  // values per group
	var groupOf []int32 // group of each pair, in stream order
	for off := 0; off < len(data); {
		key, _, next, err := nextKV(data, off)
		if err != nil {
			return nil, fmt.Errorf("mapreduce: combine input: %w", err)
		}
		g, ok := idx[string(key)]
		if !ok {
			g = int32(len(keys))
			k := string(key)
			idx[k] = g
			keys = append(keys, k)
			counts = append(counts, 0)
		}
		counts[g]++
		groupOf = append(groupOf, g)
		off = next
	}
	// Lay every group's values out contiguously in one flat slice, each
	// group in stream order. fill[g] is group g's next free slot; after
	// the scatter it is the group's end.
	fill := make([]int32, len(keys))
	for g := 1; g < len(fill); g++ {
		fill[g] = fill[g-1] + counts[g-1]
	}
	flat := make([][]byte, len(groupOf))
	for i, off := 0, 0; off < len(data); i++ {
		_, value, next, _ := nextKV(data, off) // validated above
		g := groupOf[i]
		flat[fill[g]] = value
		fill[g]++
		off = next
	}

	out := getSpillBuf()
	emit := func(key string, value []byte) error {
		*out = AppendKV(*out, KV{Key: key, Value: value})
		return nil
	}
	for g, key := range keys {
		end := fill[g]
		if err := fn(params, key, flat[end-counts[g]:end:end], emit); err != nil {
			putSpillBuf(out)
			return nil, fmt.Errorf("mapreduce: combine key %q: %w", key, err)
		}
	}
	return out, nil
}
