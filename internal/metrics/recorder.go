package metrics

import (
	"hash/fnv"
	"sync/atomic"
)

// Ring is a bounded lock-free buffer of recorded items, shared by the
// trace span ring and the structured event ring. Writers claim a slot
// with one atomic increment and store the item pointer; when the buffer
// wraps, the oldest item is overwritten and counted as dropped.
type Ring[T any] struct {
	slots []atomic.Pointer[T]
	next  atomic.Uint64
}

// NewRing returns a ring holding the newest capacity items.
func NewRing[T any](capacity int) Ring[T] {
	return Ring[T]{slots: make([]atomic.Pointer[T], capacity)}
}

// Put records v, overwriting the oldest item when the ring is full.
func (r *Ring[T]) Put(v *T) {
	i := r.next.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(v)
}

// Snapshot returns the retained items oldest-first. Concurrent puts may
// race individual slots; each slot read is atomic, so every returned
// item is one a writer stored whole.
func (r *Ring[T]) Snapshot() []*T {
	n := r.next.Load()
	size := uint64(len(r.slots))
	start := uint64(0)
	if n > size {
		start = n - size
	}
	out := make([]*T, 0, n-start)
	for i := start; i < n; i++ {
		if v := r.slots[i%size].Load(); v != nil {
			out = append(out, v)
		}
	}
	return out
}

// Dropped returns how many items have been overwritten.
func (r *Ring[T]) Dropped() int64 {
	n := r.next.Load()
	if size := uint64(len(r.slots)); n > size {
		return int64(n - size)
	}
	return 0
}

// Stamp is the time and ID source of one node's recorder: an injectable
// clock plus IDs with a seeded node hash in the high 32 bits and a
// per-node counter in the low 32. The same (node, seed) always yields the
// same ID sequence, so a single-threaded simulated run records
// byte-identical telemetry.
type Stamp struct {
	clock  Clock
	idBase uint64
	ctr    atomic.Uint64
}

// NewStamp returns the stamp for the named node; a nil clock selects
// wall time. The zero seed is fine: IDs are already node-unique.
func NewStamp(node string, clock Clock, seed uint64) Stamp {
	if clock == nil {
		clock = WallClock()
	}
	h := fnv.New32a()
	h.Write([]byte(node))
	base := uint64(h.Sum32()) ^ (seed ^ seed>>32&0xffffffff)
	return Stamp{clock: clock, idBase: (base & 0xffffffff) << 32}
}

// SetClock replaces the time source (nil restores wall time).
func (s *Stamp) SetClock(c Clock) {
	if c == nil {
		c = WallClock()
	}
	s.clock = c
}

// NowNS returns the clock's current time in UnixNano.
func (s *Stamp) NowNS() int64 { return s.clock.Now().UnixNano() }

// NextID returns a fresh ID: node hash high bits, counter low bits.
func (s *Stamp) NextID() uint64 {
	return s.idBase | (s.ctr.Add(1) & 0xffffffff)
}
