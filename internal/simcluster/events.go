package simcluster

import (
	"fmt"

	"eclipsemr/internal/bundle"
	"eclipsemr/internal/events"
	"eclipsemr/internal/metrics"
)

// modelEvents holds the per-node event logs of an event-recording
// simulation run. All logs share the model's virtual clock and derive
// event IDs from the run seed, so a single-threaded simulated run
// produces byte-identical merged timelines for identical parameters —
// the property the deterministic chaos e2e pins.
type modelEvents struct {
	driver *events.Log
	nodes  []*events.Log
}

// EnableEvents turns structured-event recording on for this model: one
// log per simulated node plus one for the driver role, all on the
// simulation clock, with event IDs seeded from seed. Call before Run;
// collect afterwards with Events or DebugBundle.
func (m *Model) EnableEvents(seed uint64) {
	clock := metrics.ClockFunc(m.S.Clock())
	me := &modelEvents{}
	mk := func(node string) *events.Log {
		// A simulated task emits a couple of events; 64Ki slots keep
		// paper-scale runs from overwriting their tails.
		return events.New(node, events.Options{Clock: clock, Seed: seed, Capacity: 1 << 16})
	}
	me.driver = mk("driver")
	for _, id := range m.ids {
		me.nodes = append(me.nodes, mk(string(id)))
	}
	m.ev = me
}

// emitDriver records a driver-role event. Nil-safe: an unrecorded model
// pays one nil check.
func (me *modelEvents) emitDriver(k events.Kind, name string, f events.F) {
	if me == nil {
		return
	}
	//lint:ignore eventname nil-safe emission wrapper; every caller passes a constant name
	me.driver.Emit(k, name, f)
}

// emit records an event on node n's log. Nil-safe.
func (me *modelEvents) emit(n int, k events.Kind, name string, f events.F) {
	if me == nil {
		return
	}
	//lint:ignore eventname nil-safe emission wrapper; every caller passes a constant name
	me.nodes[n].Emit(k, name, f)
}

// Events returns the merged deterministic timeline of one simulated job
// (all jobs plus cluster-scoped events if job is empty). Empty without
// EnableEvents.
func (m *Model) Events(job string) []events.Event {
	if m.ev == nil {
		return nil
	}
	var all []events.Event
	all = append(all, m.ev.driver.Events(job, 0)...)
	for _, l := range m.ev.nodes {
		all = append(all, l.Events(job, 0)...)
	}
	return events.Merge(all)
}

// EventsDropped sums ring overwrites across every simulated log.
func (m *Model) EventsDropped() int64 {
	if m.ev == nil {
		return 0
	}
	total := m.ev.driver.Dropped()
	for _, l := range m.ev.nodes {
		total += l.Dropped()
	}
	return total
}

// DebugBundle captures the simulated cluster into the same canonical
// bundle format the real engine's flight recorder produces, so
// `eclipse-check bundle` and the walkthroughs treat simulated and real
// captures alike. Requires EnableEvents (a bundle without events is
// invalid by definition — there is nothing to explain the capture with).
func (m *Model) DebugBundle(job, reason string) ([]byte, error) {
	if m.ev == nil {
		return nil, fmt.Errorf("simcluster: DebugBundle requires EnableEvents")
	}
	b := &bundle.Bundle{
		Reason:    reason,
		Node:      "driver",
		Job:       job,
		CreatedNS: m.ev.driver.NowNS(),
		Events:    m.Events(job),
		Spans:     m.TraceSpans(job),
	}
	b.EventsDropped = m.EventsDropped()
	if m.tr != nil {
		b.SpansDropped = m.tr.driver.Dropped()
		for _, t := range m.tr.nodes {
			b.SpansDropped += t.Dropped()
		}
	}
	for i, id := range m.ids {
		if m.dead != nil && m.dead[i] {
			continue
		}
		cs := m.caches[i].Stats()
		b.Metrics = append(b.Metrics, bundle.NodeMetrics{
			Node: string(id),
			Values: map[string]int64{
				"cache.hits":       int64(cs.Hits),
				"cache.misses":     int64(cs.Misses),
				"cache.insertions": int64(cs.Insertions),
				"cache.evictions":  int64(cs.Evictions),
			},
		})
		b.Membership.Members = append(b.Membership.Members, string(id))
	}
	b.Membership.Epoch = m.epoch
	return bundle.Encode(b)
}
