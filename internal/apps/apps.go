// Package apps implements the MapReduce applications the paper evaluates
// (§III): word count, grep, inverted index, sort, and the iterative
// k-means, page rank and logistic regression, plus the per-iteration
// drivers the iterative applications need. Applications register
// themselves under the names used throughout the benchmarks.
package apps

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"eclipsemr/internal/mapreduce"
)

// Application names as registered with the mapreduce package.
const (
	WordCount     = "wordcount"
	Grep          = "grep"
	InvertedIndex = "invertedindex"
	Sort          = "sort"
	KMeans        = "kmeans"
	PageRank      = "pagerank"
	LogReg        = "logreg"
)

// Runner abstracts the job-submission surface (cluster.Cluster satisfies
// it) so iterative drivers do not depend on the cluster package.
type Runner interface {
	Run(spec mapreduce.JobSpec) (mapreduce.Result, error)
	Collect(res mapreduce.Result, user string) ([]mapreduce.KV, error)
}

func init() {
	mapreduce.Register(WordCount, mapreduce.App{
		Map:     wordCountMap,
		Reduce:  sumReduce,
		Combine: sumReduce,
	})
	mapreduce.Register(Grep, mapreduce.App{
		Map:     grepMap,
		Reduce:  sumReduce,
		Combine: sumReduce,
	})
	mapreduce.Register(InvertedIndex, mapreduce.App{
		Map:    invertedIndexMap,
		Reduce: invertedIndexReduce,
	})
	mapreduce.Register(Sort, mapreduce.App{
		Map:    sortMap,
		Reduce: sortReduce,
	})
	mapreduce.Register(KMeans, mapreduce.App{
		Map:     kmeansMap,
		Reduce:  kmeansReduce,
		Combine: kmeansReduce,
	})
	mapreduce.Register(PageRank, mapreduce.App{
		Map:    pageRankMap,
		Reduce: pageRankReduce,
	})
	mapreduce.Register(LogReg, mapreduce.App{
		Map:     logRegMap,
		Reduce:  logRegReduce,
		Combine: logRegReduce,
	})
}

// wordCountMap emits (word, 1) for every whitespace-separated token.
func wordCountMap(_ mapreduce.Params, input []byte, emit mapreduce.Emit) error {
	return forEachField(string(input), func(w string) error { return emit(w, one) })
}

// forEachField calls fn with each field of s, splitting exactly as
// strings.Fields does (around runs of unicode.IsSpace) but without
// building the slice: fields are substrings of s.
func forEachField(s string, fn func(field string) error) error {
	start := -1 // start of the current field, -1 between fields
	for i := 0; i < len(s); {
		c := s[i]
		size := 1
		var space bool
		if c < utf8.RuneSelf {
			space = asciiSpace[c]
		} else {
			var r rune
			r, size = utf8.DecodeRuneInString(s[i:])
			space = unicode.IsSpace(r)
		}
		if space {
			if start >= 0 {
				if err := fn(s[start:i]); err != nil {
					return err
				}
				start = -1
			}
		} else if start < 0 {
			start = i
		}
		i += size
	}
	if start >= 0 {
		return fn(s[start:])
	}
	return nil
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

var one = []byte("1")

// sumReduce adds integer-encoded values, the shared reducer/combiner of
// word count and grep.
func sumReduce(_ mapreduce.Params, key string, values [][]byte, emit mapreduce.Emit) error {
	total := int64(0)
	for _, v := range values {
		n, err := strconv.ParseInt(string(v), 10, 64)
		if err != nil {
			return fmt.Errorf("apps: bad count %q for key %q: %w", v, key, err)
		}
		total += n
	}
	var buf [20]byte
	return emit(key, strconv.AppendInt(buf[:0], total, 10))
}

// grepMap emits matching lines; the pattern comes from the "pattern"
// parameter.
func grepMap(params mapreduce.Params, input []byte, emit mapreduce.Emit) error {
	pattern := params.Get("pattern")
	if pattern == "" {
		return fmt.Errorf("apps: grep requires a %q parameter", "pattern")
	}
	return splitLines(input, func(line string) error {
		if strings.Contains(line, pattern) {
			return emit(line, one)
		}
		return nil
	})
}

// invertedIndexMap parses "docID\ttext" lines and emits (word, docID).
func invertedIndexMap(_ mapreduce.Params, input []byte, emit mapreduce.Emit) error {
	return splitLines(input, func(line string) error {
		doc, text, ok := strings.Cut(line, "\t")
		if !ok {
			return fmt.Errorf("apps: inverted index: malformed document line %.40q", line)
		}
		docID := []byte(doc) // Emit copies, so one conversion serves the line
		return forEachField(text, func(w string) error { return emit(w, docID) })
	})
}

// invertedIndexReduce emits the sorted, deduplicated posting list.
func invertedIndexReduce(_ mapreduce.Params, key string, values [][]byte, emit mapreduce.Emit) error {
	seen := make(map[string]bool, len(values))
	docs := make([]string, 0, len(values))
	for _, v := range values {
		d := string(v)
		if !seen[d] {
			seen[d] = true
			docs = append(docs, d)
		}
	}
	sort.Strings(docs)
	return emit(key, []byte(strings.Join(docs, ",")))
}

// sortMap emits each record as a key (TeraSort-style identity map); the
// shuffle and reducer-side grouping do the sorting work, which is what
// the paper's sort benchmark stresses.
func sortMap(_ mapreduce.Params, input []byte, emit mapreduce.Emit) error {
	return splitLines(input, func(line string) error { return emit(line, one) })
}

// sortReduce emits each distinct record with its multiplicity; within a
// partition the output is key-sorted.
func sortReduce(_ mapreduce.Params, key string, values [][]byte, emit mapreduce.Emit) error {
	var buf [20]byte
	return emit(key, strconv.AppendInt(buf[:0], int64(len(values)), 10))
}

// splitLines calls fn with each non-empty '\n'-separated line of input,
// as substrings of one string copy of the block.
func splitLines(input []byte, fn func(line string) error) error {
	s := string(input)
	for s != "" {
		line, rest, _ := strings.Cut(s, "\n")
		s = rest
		if line == "" {
			continue
		}
		if err := fn(line); err != nil {
			return err
		}
	}
	return nil
}

// parsePoint parses a comma-separated float vector.
func parsePoint(line string, dim int) ([]float64, error) {
	parts := strings.Split(line, ",")
	if len(parts) != dim {
		return nil, fmt.Errorf("apps: point %.40q has %d dims, want %d", line, len(parts), dim)
	}
	p := make([]float64, dim)
	for j, s := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return nil, fmt.Errorf("apps: bad coordinate %q: %w", s, err)
		}
		p[j] = v
	}
	return p, nil
}

func sqDist(a, b []float64) float64 {
	d := 0.0
	for j := range a {
		d += (a[j] - b[j]) * (a[j] - b[j])
	}
	return d
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
