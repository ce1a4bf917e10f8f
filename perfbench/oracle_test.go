package main

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"eclipsemr/internal/mapreduce"
	"eclipsemr/internal/workloads"
)

// The oracles must pass a correct output and catch a corrupted one.

func TestWordCountOracleCatchesCountOffByOne(t *testing.T) {
	text := workloads.Text(3, 8<<10, 50)
	want := wordCounts(text)
	var kvs []mapreduce.KV
	for w, n := range want {
		kvs = append(kvs, mapreduce.KV{Key: w, Value: []byte(itoa(n))})
	}
	if err := checkWordCount(kvs, want); err != nil {
		t.Fatalf("correct output rejected: %v", err)
	}
	bad := slices.Clone(kvs)
	bad[0].Value = []byte(itoa(want[bad[0].Key] + 1))
	if err := checkWordCount(bad, want); err == nil {
		t.Fatal("a count one off was not caught")
	}
	if err := checkWordCount(kvs[1:], want); err == nil {
		t.Fatal("a missing word was not caught")
	}
}

func TestSortOracleCatchesDroppedRecord(t *testing.T) {
	// Short keys over a small alphabet repeat, so multiplicities > 1 occur.
	input := workloads.Records(5, 2000, 2)
	want := sortedRecords(input)
	counts := map[string]int{}
	for _, l := range strings.Fields(string(input)) {
		counts[l]++
	}
	var keys []string
	for k := range counts {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	// Two partitions, each key-sorted, as the engine writes them.
	var parts [2][]mapreduce.KV
	for i, k := range keys {
		parts[i%2] = append(parts[i%2], mapreduce.KV{Key: k, Value: []byte(itoa(int64(counts[k])))})
	}
	if err := checkSort(parts[:], want); err != nil {
		t.Fatalf("correct output rejected: %v", err)
	}

	dropped := [][]mapreduce.KV{parts[0][1:], parts[1]}
	if err := checkSort(dropped, want); err == nil {
		t.Fatal("a dropped record was not caught")
	}
	fewer := [][]mapreduce.KV{slices.Clone(parts[0]), parts[1]}
	for i, kv := range fewer[0] {
		if string(kv.Value) != "1" {
			fewer[0][i].Value = []byte(itoa(int64(counts[kv.Key] - 1)))
			break
		}
	}
	if err := checkSort(fewer, want); err == nil {
		t.Fatal("one copy of a repeated record dropped was not caught")
	}
	unsorted := [][]mapreduce.KV{slices.Clone(parts[0]), parts[1]}
	unsorted[0][0], unsorted[0][1] = unsorted[0][1], unsorted[0][0]
	if err := checkSort(unsorted, want); err == nil {
		t.Fatal("an unsorted partition was not caught")
	}
}

func TestKMeansOracleCatchesPerturbedCentroid(t *testing.T) {
	data, _ := workloads.Points(7, 500, 3, 3)
	pts, err := parsePoints(data, 3)
	if err != nil {
		t.Fatal(err)
	}
	init := [][]float64{pts[0:3], pts[3:6], pts[6:9]}
	want := lloyd(pts, 3, init, 4)
	got := lloyd(pts, 3, init, 4)
	if err := checkCentroids(got, want); err != nil {
		t.Fatalf("correct centroids rejected: %v", err)
	}
	got[1][2] += 1e-6 * max(1, got[1][2])
	if err := checkCentroids(got, want); err == nil {
		t.Fatal("a perturbed centroid was not caught")
	}
}

func TestSimOracleCatchesUnfinishedOrChangedBatch(t *testing.T) {
	first := simBatch{finished: 4, makespan: 12.5, hits: 10, misses: 30}
	if err := checkSimBatch(first, first, 4); err != nil {
		t.Fatalf("identical repeat rejected: %v", err)
	}
	for _, bad := range []simBatch{
		{finished: 3, makespan: 12.5, hits: 10, misses: 30},
		{finished: 4, makespan: 12.500000001, hits: 10, misses: 30},
		{finished: 4, makespan: 12.5, hits: 11, misses: 29},
	} {
		if err := checkSimBatch(bad, first, 4); err == nil {
			t.Errorf("%+v accepted against %+v", bad, first)
		}
	}
}

func itoa(n int64) string { return strconv.FormatInt(n, 10) }
