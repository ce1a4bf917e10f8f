package main

import (
	"sort"

	"eclipsemr/internal/trace"
)

// selfTimes sums, per span name, each span's self time: its duration
// minus the part of its interval that its child spans cover.
func selfTimes(spans []trace.Span) map[string]int64 {
	children := make(map[trace.SpanID][]trace.Span, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		start, end := s.StartNS, s.StartNS+s.DurNS
		var iv [][2]int64
		for _, c := range children[s.ID] {
			cs, ce := max(c.StartNS, start), min(c.StartNS+c.DurNS, end)
			if ce > cs {
				iv = append(iv, [2]int64{cs, ce})
			}
		}
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, reach int64 = 0, start
		for _, x := range iv {
			if x[1] <= reach {
				continue
			}
			covered += x[1] - max(x[0], reach)
			reach = x[1]
		}
		out[s.Name] += s.DurNS - covered
	}
	return out
}
