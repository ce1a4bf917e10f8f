package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"regexp"
	"strings"
)

// profSample is one CPU-profile sample: its count and the function names
// on its stack, leaf first, inlined frames included.
type profSample struct {
	Count  int64
	Stack  []string
	Labels map[string]string
}

// parseProfile decodes the gzipped profile.proto that runtime/pprof
// writes. Only the fields attribution needs are read: samples (location
// IDs, values, string labels), locations (their line entries' function
// IDs), functions (names) and the string table.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64
	}
	var (
		samples []rawSample
		strs    []string
		locFns  = map[uint64][]uint64{}
		fnName  = map[uint64]int64{}
	)
	err = pbFields(raw, func(field int, v uint64, data []byte) error {
		switch field {
		case 2: // Sample
			var s rawSample
			err := pbFields(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					return pbRepeated(v, d, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return pbRepeated(v, d, func(x uint64) { s.values = append(s.values, int64(x)) })
				case 3:
					var key, str int64
					err := pbFields(d, func(lf int, lv uint64, _ []byte) error {
						switch lf {
						case 1:
							key = int64(lv)
						case 2:
							str = int64(lv)
						}
						return nil
					})
					s.labels = append(s.labels, [2]int64{key, str})
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := pbFields(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return pbFields(d, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := pbFields(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ps := profSample{Count: s.values[0]}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				ps.Stack = append(ps.Stack, str(fnName[fn]))
			}
		}
		for _, l := range s.labels {
			if ps.Labels == nil {
				ps.Labels = map[string]string{}
			}
			ps.Labels[str(l[0])] = str(l[1])
		}
		out = append(out, ps)
	}
	return out, nil
}

// pbFields walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func pbFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbRepeated handles a repeated varint field in either encoding: one
// value per field (data nil) or packed into one length-delimited field.
func pbRepeated(v uint64, data []byte, add func(uint64)) error {
	if data == nil {
		add(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		data = data[n:]
	}
	return nil
}

const (
	mr  = "eclipsemr/internal/mapreduce."
	sim = "eclipsemr/internal/sim."
)

var (
	appMapFn    = regexp.MustCompile(`^eclipsemr/internal/apps\.[a-zA-Z]+Map(\.|$)`)
	appReduceFn = regexp.MustCompile(`^eclipsemr/internal/apps\.[a-zA-Z]+Reduce(\.|$)`)
	gcFns       = []string{
		"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcStart",
		"runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.sweepone", "runtime.deductSweepCredit",
	}
)

// stack answers "does any frame match" questions about one sample.
type stack []string

func (s stack) has(match func(fn string) bool) bool {
	for _, fn := range s {
		if match(fn) {
			return true
		}
	}
	return false
}

// fn matches a function and its closures.
func fn(names ...string) func(string) bool {
	return func(f string) bool {
		for _, n := range names {
			if f == n || strings.HasPrefix(f, n+".func") {
				return true
			}
		}
		return false
	}
}

func prefix(p string) func(string) bool {
	return func(f string) bool { return strings.HasPrefix(f, p) }
}

// simEvents matches the event heap: its methods and the container/heap
// calls made on it by Sim.At and Sim.Run (the next outer frame is sim).
func simEvents(s stack) bool {
	for i, f := range s {
		if strings.HasPrefix(f, sim+"eventHeap.") || strings.HasPrefix(f, sim+"(*eventHeap).") {
			return true
		}
		if strings.HasPrefix(f, "container/heap.") {
			for _, outer := range s[i+1:] {
				if !strings.HasPrefix(outer, "container/heap.") {
					if strings.HasPrefix(outer, sim+"(*Sim).") {
						return true
					}
					break
				}
			}
		}
	}
	return false
}

// cpuLayers assigns samples to layers by the functions on their stack.
// A sample counts towards every layer it matches, so shares may sum to
// more than 1.
var cpuLayers = []struct {
	name  string
	match func(stack) bool
}{
	{"cpu.apps.map", func(s stack) bool { return s.has(appMapFn.MatchString) }},
	{"cpu.apps.reduce", func(s stack) bool {
		return s.has(appReduceFn.MatchString) && s.has(fn(mr+"(*Worker).runReduce"))
	}},
	{"cpu.mapreduce.combine", func(s stack) bool { return s.has(fn(mr + "combineStream")) }},
	{"cpu.mapreduce.reduce_group", func(s stack) bool {
		return s.has(fn(mr+"GroupByKey")) && s.has(fn(mr+"(*Worker).runReduce"))
	}},
	{"cpu.mapreduce.codec", func(s stack) bool {
		return s.has(fn(mr+"AppendKV", mr+"EncodeKVs", mr+"decodeKVs"))
	}},
	{"cpu.hashing.key", func(s stack) bool {
		return s.has(fn("eclipsemr/internal/hashing.KeyOf", "eclipsemr/internal/hashing.KeyOfString"))
	}},
	{"cpu.dhtfs", func(s stack) bool { return s.has(prefix("eclipsemr/internal/dhtfs.")) }},
	{"cpu.scheduler", func(s stack) bool { return s.has(prefix("eclipsemr/internal/scheduler.")) }},
	{"cpu.kde", func(s stack) bool { return s.has(prefix("eclipsemr/internal/kde.")) }},
	{"cpu.transport.codec", func(s stack) bool {
		return s.has(fn("eclipsemr/internal/transport.Encode", "eclipsemr/internal/transport.Decode"))
	}},
	{"cpu.sim.flownet", func(s stack) bool { return s.has(prefix(sim + "(*FlowNet).")) }},
	{"cpu.sim.events", simEvents},
	// The simulator model's own work: simcluster frames outside the
	// scheduler, KDE, flow network and event heap it drives.
	{"cpu.simcluster", func(s stack) bool {
		return s.has(prefix("eclipsemr/internal/simcluster.")) &&
			!s.has(prefix("eclipsemr/internal/scheduler.")) &&
			!s.has(prefix("eclipsemr/internal/kde.")) &&
			!s.has(prefix(sim+"(*FlowNet).")) && !simEvents(s)
	}},
	{"cpu.runtime.gc", func(s stack) bool { return s.has(fn(gcFns...)) }},
}

// harnessLabel marks benchmark work (output checks, clean-up, span
// collection) that runs inside a profiled phase but is not the program's.
const harnessLabel = "perfbench"

// attributeCPU returns each layer's share of the profile's samples and
// the sample count those shares are taken of. Samples labelled as
// harness work are left out of both.
func attributeCPU(samples []profSample) (map[string]float64, int64) {
	counts := make(map[string]int64, len(cpuLayers))
	var total int64
	for _, ps := range samples {
		if ps.Labels[harnessLabel] != "" {
			continue
		}
		total += ps.Count
		for _, l := range cpuLayers {
			if l.match(ps.Stack) {
				counts[l.name] += ps.Count
			}
		}
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l.name] = ratio(float64(counts[l.name]), float64(total))
	}
	return shares, total
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
