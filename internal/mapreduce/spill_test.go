package mapreduce

import (
	"context"
	"fmt"
	"testing"

	"eclipsemr/internal/hashing"
)

// TestCombineStreamAllocsPerDistinctKey pins the combiner's allocations
// to the number of distinct keys, not the number of pairs: a 20k-pair
// spill over 200 keys must not allocate per pair.
func TestCombineStreamAllocsPerDistinctKey(t *testing.T) {
	const pairs, distinct = 20000, 200
	var data []byte
	for i := 0; i < pairs; i++ {
		data = AppendKV(data, KV{Key: fmt.Sprintf("key%03d", i*7%distinct), Value: []byte("1")})
	}
	noop := func(Params, string, [][]byte, Emit) error { return nil }
	allocs := testing.AllocsPerRun(20, func() {
		out, err := combineStream(noop, nil, data)
		if err != nil {
			t.Fatal(err)
		}
		putSpillBuf(out)
	})
	if limit := float64(2*distinct + 64); allocs > limit {
		t.Fatalf("combineStream allocated %.0f times for %d pairs over %d keys, want <= %.0f",
			allocs, pairs, distinct, limit)
	}
}

// TestRouteMemoPastCapWithOnlyPartitions checks the per-task routing memo
// once it is full: with more distinct keys than routeMemoCap and an
// OnlyPartitions filter, every stored pair sits in the partition that
// hashing its key names, and every key of a wanted partition arrives.
func TestRouteMemoPastCapWithOnlyPartitions(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 3})
	text, want := wideCorpus(routeMemoCap+2000, 2)
	ec.upload(t, "memo.txt", text, 1<<20)
	meta, err := ec.fs[ec.ids[0]].Lookup(context.Background(), "memo.txt", "tester")
	if err != nil {
		t.Fatal(err)
	}
	if len(meta.BlockKeys) != 1 {
		t.Fatalf("corpus spans %d blocks, want 1", len(meta.BlockKeys))
	}
	table, err := hashing.AlignedRangeTable(ec.ring)
	if err != nil {
		t.Fatal(err)
	}
	wanted := map[int]bool{0: true, 2: true}
	req := RunMapReq{
		Job: "memo-1", Namespace: "job:memo-1", App: "test-wordcount",
		BlockKey: meta.BlockKeys[0], Task: "t0",
		ReduceServers: table.Servers(), ReduceBounds: table.Bounds(),
		OnlyPartitions: []int{0, 2},
		SpillThreshold: 4 << 10,
	}
	if _, err := ec.workers[ec.ids[0]].runMap(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool)
	for part, owner := range table.Servers() {
		for _, seg := range ec.fs[owner].Store().ReadSegments("job:memo-1", partitionName(part)) {
			kvs, err := DecodeKVs(seg)
			if err != nil {
				t.Fatal(err)
			}
			for _, kv := range kvs {
				if !wanted[part] {
					t.Fatalf("key %q stored in unwanted partition %d", kv.Key, part)
				}
				if p := table.LookupIndex(hashing.KeyOfString(kv.Key)); p != part {
					t.Fatalf("key %q stored in partition %d, hashes to %d", kv.Key, part, p)
				}
				got[kv.Key] = true
			}
		}
	}
	for w := range want {
		if wanted[table.LookupIndex(hashing.KeyOfString(w))] && !got[w] {
			t.Fatalf("key %q of a wanted partition never arrived", w)
		}
	}
}
