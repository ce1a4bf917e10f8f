package simcluster

import (
	"strings"
	"testing"

	"eclipsemr/internal/bundle"
	"eclipsemr/internal/events"
	"eclipsemr/internal/metrics"
	"eclipsemr/internal/trace"
)

// runKillRecovery executes one seeded kill-a-node WordCount: node 3 is
// crashed at the exact map→reduce boundary, its partition re-homes, and
// the run completes. Returns the rendered merged timeline and the
// captured debug bundle.
func runKillRecovery(t *testing.T, seed uint64) (timeline string, bundleBytes []byte, stats JobStats) {
	t.Helper()
	p := DefaultParams()
	p.Nodes = 8
	m, err := NewModel(p, Eclipse, LAF(0.001))
	if err != nil {
		t.Fatal(err)
	}
	m.EnableEvents(seed)
	m.EnableTracing(seed)
	if err := m.KillNodeAtReduceStart(3); err != nil {
		t.Fatal(err)
	}
	job := JobDesc{Name: "chaos-wc", App: ProfileWordCount, InputBytes: 2 * gb, Seed: 1}
	if err := m.Submit(job, 0, func(s JobStats) { stats = s }); err != nil {
		t.Fatal(err)
	}
	m.Run()
	if stats.Finish == 0 {
		t.Fatal("job never completed after the kill")
	}
	if m.EventsDropped() != 0 {
		t.Fatalf("event rings dropped %d events", m.EventsDropped())
	}
	data, err := m.DebugBundle("", "soak_failure")
	if err != nil {
		t.Fatal(err)
	}
	return events.Render(m.Events("")), data, stats
}

// TestKillRecoveryDeterministicTimeline is the deterministic chaos e2e
// the PR pins its acceptance on: two identical seeded kill-a-node runs
// must produce byte-identical merged event timelines and byte-identical
// debug bundles, and the timeline must contain the exact recovery
// sequence in order.
func TestKillRecoveryDeterministicTimeline(t *testing.T) {
	tl1, b1, _ := runKillRecovery(t, 99)
	tl2, b2, _ := runKillRecovery(t, 99)
	if tl1 != tl2 {
		t.Fatalf("seeded runs diverged:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", tl1, tl2)
	}
	if string(b1) != string(b2) {
		t.Fatal("seeded runs produced different debug bundles")
	}

	// The recovery narrative must appear in this exact order: the victim
	// is suspected, evicted, its partition re-homes to the successor, the
	// job records the recovery, and the re-homed partition still reduces.
	sequence := []string{
		"member.suspect",
		"member.evict",
		"partition.rehome",
		"job.recovery",
		"reduce.finish",
		"job.done",
	}
	at := 0
	for _, want := range sequence {
		i := strings.Index(tl1[at:], want)
		if i < 0 {
			t.Fatalf("timeline missing %q after offset %d:\n%s", want, at, tl1)
		}
		at += i
	}
	for _, want := range []string{
		"member.evict", "(node-03)", // the armed victim, by name
		"part-03", // its partition is the one that re-homes
	} {
		if !strings.Contains(tl1, want) {
			t.Fatalf("timeline missing %q:\n%s", want, tl1)
		}
	}
	// The dead node must not emit anything after eviction; its partition's
	// reduce.finish must exist and come from the successor.
	foundRehomed := false
	for _, line := range strings.Split(tl1, "\n") {
		if strings.Contains(line, "reduce.finish") && strings.Contains(line, "part-03") {
			foundRehomed = true
			if !strings.Contains(line, "node-04") {
				t.Fatalf("re-homed partition reduced on the wrong node: %s", line)
			}
		}
	}
	if !foundRehomed {
		t.Fatal("timeline records no reduce.finish for the re-homed partition")
	}
}

// TestKillRecoveryBundleValidates pins the auto-captured bundle against
// the schema `eclipse-check bundle` enforces: events + metrics + spans +
// membership present, the victim gone from the view, and the canonical
// encoding stable under re-encode.
func TestKillRecoveryBundleValidates(t *testing.T) {
	_, data, _ := runKillRecovery(t, 7)
	if err := bundle.Validate(data); err != nil {
		t.Fatalf("captured bundle invalid: %v", err)
	}
	b, err := bundle.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if b.Reason != "soak_failure" {
		t.Errorf("reason = %q", b.Reason)
	}
	for _, mem := range b.Membership.Members {
		if mem == "node-03" {
			t.Error("bundle membership still lists the crashed node")
		}
	}
	if len(b.Membership.Members) != 7 {
		t.Errorf("membership has %d members, want 7", len(b.Membership.Members))
	}
	if b.Membership.Epoch != 1 {
		t.Errorf("epoch = %d, want 1 after one eviction", b.Membership.Epoch)
	}
	if len(b.Spans) == 0 {
		t.Error("bundle has no spans despite EnableTracing")
	}
	// Canonical re-encode must be byte-identical.
	re, err := bundle.Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(re) != string(data) {
		t.Error("re-encoding the decoded bundle changed bytes")
	}
}

// TestBundleCountsDroppedSpans pins that a simulated bundle reports the
// spans its tracers' rings overwrote: with 4-slot tracers a whole job
// cannot fit, so spans_dropped must be positive, not a silent 0.
func TestBundleCountsDroppedSpans(t *testing.T) {
	m, err := NewModel(Params{Nodes: 4, RackSize: 4}, Eclipse, LAF(0.001))
	if err != nil {
		t.Fatal(err)
	}
	m.EnableEvents(1)
	clock := metrics.ClockFunc(m.S.Clock())
	mk := func(node string) *trace.Tracer {
		tr := trace.New(node, trace.Options{Clock: clock, Seed: 1, Capacity: 4})
		tr.SetEnabled(true)
		return tr
	}
	m.tr = &modelTrace{driver: mk("driver")}
	for _, id := range m.ids {
		m.tr.nodes = append(m.tr.nodes, mk(string(id)))
	}
	if err := m.Submit(JobDesc{Name: "wc", App: ProfileWordCount, InputBytes: gb, Seed: 1}, 0, nil); err != nil {
		t.Fatal(err)
	}
	m.Run()
	data, err := m.DebugBundle("", "manual")
	if err != nil {
		t.Fatal(err)
	}
	b, err := bundle.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if b.SpansDropped <= 0 {
		t.Fatalf("spans_dropped = %d with 4-slot tracers, want > 0", b.SpansDropped)
	}
}

// TestKillRecoveryCostsShowUp pins that recovery is not free in the
// model: the same job without a kill finishes no later than the killed
// run (the re-homed partition pays a remote pull and queue sharing).
func TestKillRecoveryCostsShowUp(t *testing.T) {
	p := DefaultParams()
	p.Nodes = 8
	job := JobDesc{Name: "base-wc", App: ProfileWordCount, InputBytes: 2 * gb, Seed: 1}

	base, err := NewModel(p, Eclipse, LAF(0.001))
	if err != nil {
		t.Fatal(err)
	}
	var baseStats JobStats
	if err := base.Submit(job, 0, func(s JobStats) { baseStats = s }); err != nil {
		t.Fatal(err)
	}
	base.Run()

	_, _, killed := runKillRecovery(t, 1)
	if killed.Finish < baseStats.Finish {
		t.Errorf("killed run (%.3fs) finished before the healthy run (%.3fs)",
			killed.Finish, baseStats.Finish)
	}
}

// TestEventsDisabledByDefault pins the off switch: a model without
// EnableEvents records nothing and Events/DebugBundle degrade cleanly.
func TestEventsDisabledByDefault(t *testing.T) {
	m, err := NewModel(DefaultParams(), Eclipse, LAF(0.001))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(JobDesc{Name: "off", App: ProfileWordCount, InputBytes: gb, Seed: 1}, 0, nil); err != nil {
		t.Fatal(err)
	}
	m.Run()
	if evs := m.Events(""); len(evs) != 0 {
		t.Fatalf("disabled events collected %d", len(evs))
	}
	if _, err := m.DebugBundle("", "x"); err == nil {
		t.Fatal("DebugBundle without EnableEvents did not error")
	}
}
