package metrics

import "testing"

// TestStampIDsPinned pins the ID layout spans and events share: the
// seeded fnv node hash in the high 32 bits, a counter from 1 in the low
// 32. Traces and bundles recorded under a (node, seed) must keep their
// IDs, so these values may not change.
func TestStampIDsPinned(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		want uint64
	}{
		{0, 0xa9479d3100000001},
		{99, 0xa9479d5200000001},
		{0xdeadbeef12345678, 0x65de75a600000001},
	} {
		s := NewStamp("worker-01", nil, tc.seed)
		if got := s.NextID(); got != tc.want {
			t.Errorf("seed %#x: first ID %#x, want %#x", tc.seed, got, tc.want)
		}
		if got := s.NextID(); got != tc.want+1 {
			t.Errorf("seed %#x: second ID %#x, want %#x", tc.seed, got, tc.want+1)
		}
	}
}
