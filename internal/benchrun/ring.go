package benchrun

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"eclipsemr/internal/hashing"
)

// RingBenchConfig sizes the ring algorithm comparison: lookup cost,
// churn (keys remapped on one join and one leave) and load balance per
// backend per member count. The O(1) backends (jump, power) are measured
// at the same member counts as the chord ring so the scaling difference
// is visible in one report; rendezvous has its own smaller counts because
// its lookup is O(n) by construction.
type RingBenchConfig struct {
	// Sizes are the member (bucket/token) counts for chord, jump and
	// power. At least three, ascending, so the report shows growth.
	Sizes []int `json:"sizes"`
	// RendezvousSizes are the member counts for the O(n) rendezvous
	// backend (smaller: it targets small local rings).
	RendezvousSizes []int `json:"rendezvous_sizes"`
	// Lookups is how many random keys each lookup timing resolves.
	Lookups int `json:"lookups"`
	// ChurnProbes is how many keys are traced across a join and a leave
	// to measure the remapped fraction.
	ChurnProbes int `json:"churn_probes"`
	// LoadProbes caps the keys counted for the load-balance measurement;
	// sizes where the cap undersamples (< 8 keys per member) skip it.
	LoadProbes int `json:"load_probes"`
	// Seed makes key and member generation reproducible.
	Seed int64 `json:"seed"`
}

// DefaultRingBenchConfig is the full-size comparison: 10k–1M members for
// the O(1)-capable backends, per the scaling claims in EXPERIMENTS.md.
func DefaultRingBenchConfig() RingBenchConfig {
	return RingBenchConfig{
		Sizes:           []int{10_000, 100_000, 1_000_000},
		RendezvousSizes: []int{2_048, 8_192, 32_768},
		Lookups:         4_096,
		ChurnProbes:     4_096,
		LoadProbes:      262_144,
		Seed:            1,
	}
}

// ShortRingBenchConfig is the CI smoke size: same shape, seconds to run.
func ShortRingBenchConfig() RingBenchConfig {
	return RingBenchConfig{
		Sizes:           []int{1_024, 8_192, 65_536},
		RendezvousSizes: []int{256, 1_024, 4_096},
		Lookups:         1_024,
		ChurnProbes:     1_024,
		LoadProbes:      65_536,
		Seed:            1,
	}
}

// RingPoint is one (backend, member count) measurement.
type RingPoint struct {
	Nodes int `json:"nodes"`
	// LookupNS is the mean wall time of one Owner lookup.
	LookupNS float64 `json:"lookup_ns"`
	// JoinRemappedFrac is the fraction of probe keys whose owner changed
	// when one node joined; ideal is 1/(n+1).
	JoinRemappedFrac float64 `json:"join_remapped_frac"`
	JoinIdealFrac    float64 `json:"join_ideal_frac"`
	// LeaveRemappedFrac is the fraction remapped when one node left;
	// ideal is 1/n (only the departed node's keys move).
	LeaveRemappedFrac float64 `json:"leave_remapped_frac"`
	LeaveIdealFrac    float64 `json:"leave_ideal_frac"`
	// LoadCV is the coefficient of variation (stddev/mean) of per-node
	// key counts; 0 is perfect balance. Omitted (with LoadProbes 0) when
	// the probe cap would undersample this size.
	LoadCV     float64 `json:"load_cv,omitempty"`
	LoadProbes int     `json:"load_probes,omitempty"`
}

// RingBackendReport groups one backend's points.
type RingBackendReport struct {
	Algorithm string      `json:"algorithm"`
	Points    []RingPoint `json:"points"`
}

// RingReport is the BENCH_ring.json payload.
type RingReport struct {
	Name      string              `json:"name"`
	GoVersion string              `json:"go_version"`
	Config    RingBenchConfig     `json:"config"`
	Backends  []RingBackendReport `json:"backends"`
}

// Validate checks a ring report: every -ring backend present, at least
// three ascending member counts per backend, and each point carrying a
// positive lookup timing plus join/leave churn fractions in [0, 1]. A
// silently empty or malformed report fails here instead of shipping as
// a perf point.
func (rep RingReport) Validate() error {
	if rep.Name != "ring" {
		return fmt.Errorf("name = %q, want \"ring\"", rep.Name)
	}
	byAlg := make(map[string]RingBackendReport, len(rep.Backends))
	for _, back := range rep.Backends {
		byAlg[back.Algorithm] = back
	}
	for _, alg := range hashing.Algorithms() {
		back, ok := byAlg[alg]
		if !ok {
			return fmt.Errorf("backend %q missing", alg)
		}
		if len(back.Points) < 3 {
			return fmt.Errorf("backend %q has %d points, want >= 3 member counts", alg, len(back.Points))
		}
		prev := 0
		for _, pt := range back.Points {
			if pt.Nodes <= prev {
				return fmt.Errorf("backend %q: member counts not ascending at %d", alg, pt.Nodes)
			}
			prev = pt.Nodes
			if pt.LookupNS <= 0 {
				return fmt.Errorf("backend %q/%d: lookup_ns = %v", alg, pt.Nodes, pt.LookupNS)
			}
			for name, frac := range map[string]float64{
				"join_remapped_frac":  pt.JoinRemappedFrac,
				"leave_remapped_frac": pt.LeaveRemappedFrac,
			} {
				if frac < 0 || frac > 1 {
					return fmt.Errorf("backend %q/%d: %s = %v", alg, pt.Nodes, name, frac)
				}
			}
		}
	}
	return nil
}

// RingBench measures every ring backend and returns the report.
func RingBench(cfg RingBenchConfig) (RingReport, error) {
	rep := RingReport{Name: "ring", GoVersion: runtime.Version(), Config: cfg}
	for _, alg := range hashing.Algorithms() {
		sizes := cfg.Sizes
		if alg == hashing.AlgorithmRendezvous {
			sizes = cfg.RendezvousSizes
		}
		back := RingBackendReport{Algorithm: alg}
		for _, n := range sizes {
			pt, err := ringPoint(alg, n, cfg)
			if err != nil {
				return RingReport{}, fmt.Errorf("ring bench %s/%d: %w", alg, n, err)
			}
			back.Points = append(back.Points, pt)
		}
		rep.Backends = append(rep.Backends, back)
	}
	return rep, nil
}

// buildRing populates a ring of the named algorithm with n members. The
// chord backend inserts in ascending ring-position order and rendezvous
// in ascending ID order, so population is linear instead of quadratic —
// the measurements start from identical membership either way.
func buildRing(alg string, n int, extra int) (hashing.Ring, []hashing.NodeID, error) {
	ids := make([]hashing.NodeID, n+extra)
	for i := range ids {
		ids[i] = hashing.NodeID(fmt.Sprintf("bench-%07d", i))
	}
	if alg == hashing.AlgorithmChord {
		r := hashing.NewChordRing()
		type placed struct {
			id  hashing.NodeID
			pos hashing.Key
		}
		order := make([]placed, n)
		for i := 0; i < n; i++ {
			order[i] = placed{ids[i], hashing.KeyOfString(string(ids[i]))}
		}
		//lint:ignore ringcmp ordinal sort picks an insertion order so ring build is linear; no arc membership is derived
		sort.Slice(order, func(i, j int) bool { return order[i].pos < order[j].pos })
		for _, p := range order {
			if err := r.Add(p.id, p.pos); err != nil {
				return nil, nil, err
			}
		}
		return r, ids, nil
	}
	r, err := hashing.NewAlgorithmRing(alg)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < n; i++ {
		if err := r.AddNode(ids[i]); err != nil {
			return nil, nil, err
		}
	}
	return r, ids, nil
}

func ringPoint(alg string, n int, cfg RingBenchConfig) (RingPoint, error) {
	ring, ids, err := buildRing(alg, n, 1)
	if err != nil {
		return RingPoint{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	keys := make([]hashing.Key, cfg.Lookups)
	for i := range keys {
		keys[i] = hashing.Key(rng.Uint64())
	}

	// Lookup timing: mean ns per Owner over the random key set.
	start := time.Now()
	for _, k := range keys {
		if _, err := ring.Owner(k); err != nil {
			return RingPoint{}, err
		}
	}
	pt := RingPoint{
		Nodes:    n,
		LookupNS: float64(time.Since(start).Nanoseconds()) / float64(len(keys)),
	}

	// Churn: trace ownership of the probe set across one join and the
	// matching leave. A single join only remaps ~1/n of the key space, so
	// the probe count scales with n (capped — O(n)-lookup rendezvous gets
	// a lower cap) or the sampled fraction would round to zero.
	churnProbes := cfg.ChurnProbes
	if scaled := 128 * n; scaled > churnProbes {
		churnProbes = scaled
	}
	maxProbes := 1 << 22
	if alg == hashing.AlgorithmRendezvous {
		maxProbes = 32_768
	}
	if churnProbes > maxProbes {
		churnProbes = maxProbes
	}
	probes := make([]hashing.Key, churnProbes)
	for i := range probes {
		probes[i] = hashing.Key(rng.Uint64())
	}
	before, err := owners(ring, probes)
	if err != nil {
		return RingPoint{}, err
	}
	joiner := ids[n]
	if err := ring.AddNode(joiner); err != nil {
		return RingPoint{}, err
	}
	after, err := owners(ring, probes)
	if err != nil {
		return RingPoint{}, err
	}
	pt.JoinRemappedFrac = movedFrac(before, after)
	pt.JoinIdealFrac = 1 / float64(n+1)
	ring.Remove(joiner)
	// Leave: remove an established member and count moved keys.
	victim := ids[n/2]
	ring.Remove(victim)
	left, err := owners(ring, probes)
	if err != nil {
		return RingPoint{}, err
	}
	pt.LeaveRemappedFrac = movedFrac(before, left)
	pt.LeaveIdealFrac = 1 / float64(n)
	if err := ring.AddNode(victim); err != nil {
		return RingPoint{}, err
	}

	// Load balance: per-node key counts over a larger probe set, skipped
	// when the cap would leave fewer than 8 keys per member.
	if cfg.LoadProbes >= 8*n {
		counts := make(map[hashing.NodeID]int, n)
		for i := 0; i < cfg.LoadProbes; i++ {
			owner, err := ring.Owner(hashing.Key(rng.Uint64()))
			if err != nil {
				return RingPoint{}, err
			}
			counts[owner]++
		}
		mean := float64(cfg.LoadProbes) / float64(n)
		var ss float64
		for i := 0; i < n; i++ {
			d := float64(counts[ids[i]]) - mean
			ss += d * d
		}
		pt.LoadCV = math.Sqrt(ss/float64(n)) / mean
		pt.LoadProbes = cfg.LoadProbes
	}
	return pt, nil
}

func owners(r hashing.Ring, keys []hashing.Key) ([]hashing.NodeID, error) {
	out := make([]hashing.NodeID, len(keys))
	for i, k := range keys {
		o, err := r.Owner(k)
		if err != nil {
			return nil, err
		}
		out[i] = o
	}
	return out, nil
}

func movedFrac(a, b []hashing.NodeID) float64 {
	moved := 0
	for i := range a {
		if a[i] != b[i] {
			moved++
		}
	}
	return float64(moved) / float64(len(a))
}
