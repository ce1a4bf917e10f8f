// Command eclipse-check validates the artifacts the bench harness, the
// flight recorder and the trace exporter write, so a malformed one fails
// the build instead of the person who later opens it. One kind per run:
//
//	bench   BENCH_wordcount.json / BENCH_kmeans.json: a positive wall
//	        time with one timing per job, bytes actually shuffled, at
//	        least one batch RPC (never more than spills), a send p99.
//	ring    BENCH_ring.json: every -ring backend, >= 3 ascending member
//	        counts each, positive lookup time, churn fractions in [0, 1].
//	bundle  a debug bundle: every section present, a known schema
//	        version, the event timeline in canonical merged order.
//	trace   a Chrome trace-event export: the fields Perfetto requires,
//	        monotone timestamps, parents present and started first.
//
// Usage: eclipse-check <bench|bundle|ring|trace> <file>...
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"

	"eclipsemr/internal/benchrun"
	"eclipsemr/internal/bundle"
	"eclipsemr/internal/trace"
)

// checks maps each artifact kind to its validator, which returns the
// "ok (...)" summary printed after the file name.
var checks = map[string]func(data []byte) (string, error){
	"bench": func(data []byte) (string, error) {
		var rep benchrun.Report
		if err := json.Unmarshal(data, &rep); err != nil {
			return "", err
		}
		if err := rep.Validate(); err != nil {
			return "", err
		}
		return fmt.Sprintf("ok (%d batches for %d spills, %d bytes shuffled)",
			rep.ShuffleBatches, rep.Counters["mr.shuffle.spills"], rep.BytesShuffled), nil
	},
	"ring": func(data []byte) (string, error) {
		var rep benchrun.RingReport
		if err := json.Unmarshal(data, &rep); err != nil {
			return "", err
		}
		if err := rep.Validate(); err != nil {
			return "", err
		}
		return fmt.Sprintf("ok (%d backends)", len(rep.Backends)), nil
	},
	"bundle": func(data []byte) (string, error) {
		if err := bundle.Validate(data); err != nil {
			return "", err
		}
		b, err := bundle.Decode(data)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("ok (reason %q, %d events, %d metric nodes, %d spans, %d journal entries, %d members)",
			b.Reason, len(b.Events), len(b.Metrics), len(b.Spans), len(b.Journal), len(b.Membership.Members)), nil
	},
	"trace": func(data []byte) (string, error) {
		if err := trace.ValidateChrome(data); err != nil {
			return "", err
		}
		return fmt.Sprintf("ok (%d bytes)", len(data)), nil
	},
}

// checkFile validates one file as the given kind.
func checkFile(kind, path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	summary, err := checks[kind](data)
	if err != nil {
		return "", fmt.Errorf("%s: %w", path, err)
	}
	return summary, nil
}

func main() {
	if len(os.Args) < 3 || checks[os.Args[1]] == nil {
		fmt.Fprintln(os.Stderr, "usage: eclipse-check <bench|bundle|ring|trace> <file>...")
		os.Exit(2)
	}
	kind := os.Args[1]
	for _, path := range os.Args[2:] {
		summary, err := checkFile(kind, path)
		if err != nil {
			log.Fatalf("eclipse-check %s: %v", kind, err)
		}
		fmt.Printf("%s: %s\n", path, summary)
	}
}
