package main

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"eclipsemr/internal/mapreduce"
)

// The reference oracles below recompute each job's answer sequentially
// from the generated input and compare it with what the cluster wrote.

// wordCounts counts whitespace-separated words.
func wordCounts(text []byte) map[string]int64 {
	counts := map[string]int64{}
	for _, w := range strings.Fields(string(text)) {
		counts[w]++
	}
	return counts
}

// checkWordCount wants exactly one output pair per distinct word,
// carrying its count.
func checkWordCount(kvs []mapreduce.KV, want map[string]int64) error {
	if len(kvs) != len(want) {
		return fmt.Errorf("wordcount: %d keys, want %d", len(kvs), len(want))
	}
	for _, kv := range kvs {
		n, err := strconv.ParseInt(string(kv.Value), 10, 64)
		if err != nil {
			return fmt.Errorf("wordcount: key %q: bad count %q", kv.Key, kv.Value)
		}
		if w, ok := want[kv.Key]; !ok || n != w {
			return fmt.Errorf("wordcount: key %q counted %d, want %d", kv.Key, n, w)
		}
	}
	return nil
}

// sortedRecords returns the input's non-empty lines in byte order, each
// terminated by '\n'.
func sortedRecords(data []byte) []byte {
	lines := strings.Split(string(data), "\n")
	lines = slices.DeleteFunc(lines, func(l string) bool { return l == "" })
	slices.Sort(lines)
	var b bytes.Buffer
	b.Grow(len(data))
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// checkSort wants each partition's keys strictly increasing, and the
// union of all partitions, each key repeated by its multiplicity, to be
// exactly the sorted input records.
func checkSort(parts [][]mapreduce.KV, want []byte) error {
	var got []string
	for p, kvs := range parts {
		for i, kv := range kvs {
			if i > 0 && kvs[i-1].Key >= kv.Key {
				return fmt.Errorf("sort: partition %d not key-sorted at %q", p, kv.Key)
			}
			n, err := strconv.Atoi(string(kv.Value))
			if err != nil || n < 1 {
				return fmt.Errorf("sort: key %q: bad multiplicity %q", kv.Key, kv.Value)
			}
			for ; n > 0; n-- {
				got = append(got, kv.Key)
			}
		}
	}
	slices.Sort(got)
	rest := want
	for _, k := range got {
		i := bytes.IndexByte(rest, '\n')
		if i < 0 {
			return fmt.Errorf("sort: %d records out, more than the input holds", len(got))
		}
		if string(rest[:i]) != k {
			return fmt.Errorf("sort: output record %q, want %q", k, rest[:i])
		}
		rest = rest[i+1:]
	}
	if len(rest) > 0 {
		return fmt.Errorf("sort: %d records out, input has more", len(got))
	}
	return nil
}

// parsePoints parses comma-separated points into one flat slice.
func parsePoints(data []byte, dim int) ([]float64, error) {
	var pts []float64
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) != dim {
			return nil, fmt.Errorf("kmeans: point %q has %d dims, want %d", line, len(fields), dim)
		}
		for _, f := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, fmt.Errorf("kmeans: %w", err)
			}
			pts = append(pts, v)
		}
	}
	return pts, nil
}

// lloyd runs iters sequential Lloyd iterations from init. A centre that
// attracts no point keeps its position, as apps.RunKMeans does.
func lloyd(pts []float64, dim int, init [][]float64, iters int) [][]float64 {
	k := len(init)
	cent := make([][]float64, k)
	for c := range cent {
		cent[c] = slices.Clone(init[c])
	}
	for it := 0; it < iters; it++ {
		sums := make([][]float64, k)
		counts := make([]float64, k)
		for c := range sums {
			sums[c] = make([]float64, dim)
		}
		for i := 0; i+dim <= len(pts); i += dim {
			p := pts[i : i+dim]
			best, bestD := 0, sqDist(p, cent[0])
			for c := 1; c < k; c++ {
				if d := sqDist(p, cent[c]); d < bestD {
					best, bestD = c, d
				}
			}
			for j, v := range p {
				sums[best][j] += v
			}
			counts[best]++
		}
		for c := range cent {
			if counts[c] == 0 {
				continue
			}
			for j := range cent[c] {
				cent[c][j] = sums[c][j] / counts[c]
			}
		}
	}
	return cent
}

func sqDist(a, b []float64) float64 {
	d := 0.0
	for j := range a {
		d += (a[j] - b[j]) * (a[j] - b[j])
	}
	return d
}

// centroidTolerance bounds |got - want| relative to max(|want|, 1): the
// cluster sums points in a different order than the sequential run.
const centroidTolerance = 1e-9

func checkCentroids(got, want [][]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("kmeans: %d centroids, want %d", len(got), len(want))
	}
	for c := range want {
		if len(got[c]) != len(want[c]) {
			return fmt.Errorf("kmeans: centroid %d has %d dims, want %d", c, len(got[c]), len(want[c]))
		}
		for j, w := range want[c] {
			if math.Abs(got[c][j]-w) > centroidTolerance*math.Max(math.Abs(w), 1) {
				return fmt.Errorf("kmeans: centroid %d dim %d is %v, want %v", c, j, got[c][j], w)
			}
		}
	}
	return nil
}
