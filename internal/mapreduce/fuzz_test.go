package mapreduce

import (
	"bytes"
	"errors"
	"slices"
	"sort"
	"testing"
)

// FuzzDecodeKVs exercises the spill codec on arbitrary byte streams: the
// decoder must never panic, and any stream it accepts must re-encode to
// the identical bytes (the format is canonical — this is what makes
// segment append-concatenation sound).
func FuzzDecodeKVs(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeKVs([]KV{{Key: "a", Value: []byte("1")}}))
	f.Add(EncodeKVs([]KV{
		{Key: "", Value: nil},
		{Key: "hello", Value: []byte("world")},
		{Key: "hello", Value: bytes.Repeat([]byte{0xff}, 100)},
	}))
	f.Add([]byte{0, 0, 0, 1, 'k'})             // truncated value length
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 'x'}) // absurd key length
	// Lengths at exactly 2^31: int(uint32) wraps negative on 32-bit
	// platforms if converted before validation (the overflow regression).
	f.Add([]byte{0x80, 0x00, 0x00, 0x00, 'x'})
	f.Add([]byte{0x00, 0x00, 0x00, 0x01, 'k', 0x80, 0x00, 0x00, 0x00, 'v'})
	f.Fuzz(func(t *testing.T, data []byte) {
		kvs, err := DecodeKVs(data)
		if err != nil {
			return // rejected streams just need to not panic
		}
		round := EncodeKVs(kvs)
		if !bytes.Equal(round, data) {
			t.Fatalf("accepted stream is not canonical: %x re-encodes to %x", data, round)
		}
		// A second decode of the re-encoding must agree.
		again, err := DecodeKVs(round)
		if err != nil {
			t.Fatalf("re-encoded stream rejected: %v", err)
		}
		if len(again) != len(kvs) {
			t.Fatalf("round trip changed pair count: %d -> %d", len(kvs), len(again))
		}
		for i := range kvs {
			if again[i].Key != kvs[i].Key || !bytes.Equal(again[i].Value, kvs[i].Value) {
				t.Fatalf("pair %d changed: %+v -> %+v", i, kvs[i], again[i])
			}
		}
	})
}

// referenceGroups is the grouping GroupByKey replaced: decode to pairs,
// stable-sort by key, collate equal keys.
func referenceGroups(kvs []KV) []group {
	sorted := append([]KV(nil), kvs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var out []group
	for _, kv := range sorted {
		if n := len(out); n > 0 && out[n-1].Key == kv.Key {
			out[n-1].Values = append(out[n-1].Values, kv.Value)
			continue
		}
		out = append(out, group{Key: kv.Key, Values: [][]byte{kv.Value}})
	}
	return out
}

// pairsFromBytes builds a well-formed stream out of arbitrary fuzz bytes,
// so the fuzzer reaches valid streams as often as corrupt ones: each
// control byte picks a key and value length of 0-3 bytes taken from what
// follows. Short keys collide often, giving duplicate keys, and the raw
// bytes give non-ASCII and invalid UTF-8 keys.
func pairsFromBytes(b []byte) []byte {
	var kvs []KV
	for len(b) > 0 {
		c := b[0]
		b = b[1:]
		kl := min(int(c&3), len(b))
		key := string(b[:kl])
		b = b[kl:]
		vl := min(int(c>>2&3), len(b))
		kvs = append(kvs, KV{Key: key, Value: b[:vl]})
		b = b[vl:]
	}
	return EncodeKVs(kvs)
}

// concatCombiner emits, per key, its values re-encoded as one stream of
// empty-keyed pairs, so the combined output preserves every value and
// its position.
func concatCombiner(_ Params, key string, values [][]byte, emit Emit) error {
	var buf []byte
	for _, v := range values {
		buf = AppendKV(buf, KV{Value: v})
	}
	return emit(key, buf)
}

// FuzzGroupAndCombine checks the reduce-side GroupByKey and the map-side
// combineStream against referenceGroups on arbitrary streams: keys come
// out once each (in byte order for GroupByKey, first-appearance order
// for the combiner) with the reference's values in stream order, and a
// corrupt stream fails exactly as DecodeKVs does without panicking.
func FuzzGroupAndCombine(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeKVs([]KV{
		{Key: "b", Value: []byte("1")},
		{Key: "a", Value: []byte("2")},
		{Key: "b", Value: nil},
		{Key: "", Value: []byte("4")},
		{Key: "\xff\xfe", Value: []byte("5")},
		{Key: "é", Value: []byte("6")},
		{Key: "a", Value: []byte("7")},
	}))
	f.Add([]byte{0, 0, 0, 1, 'k'})
	f.Add([]byte{0x80, 0x00, 0x00, 0x00, 'x'})
	f.Add([]byte("\x05ab\x06cd\x07ef\x01a\x05ab"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkGroupAndCombine(t, data)
		checkGroupAndCombine(t, pairsFromBytes(data))
	})
}

func checkGroupAndCombine(t *testing.T, data []byte) {
	kvs, refErr := DecodeKVs(data)

	groups, err := collectGroups(data)
	if refErr != nil {
		if err == nil || err.Error() != refErr.Error() || len(groups) != 0 {
			t.Fatalf("GroupByKey on corrupt stream: err=%v after %d groups, DecodeKVs err=%v", err, len(groups), refErr)
		}
	} else {
		if err != nil {
			t.Fatalf("GroupByKey rejected a valid stream: %v", err)
		}
		want := referenceGroups(kvs)
		if len(groups) != len(want) {
			t.Fatalf("GroupByKey gave %d groups, reference %d", len(groups), len(want))
		}
		for i, g := range groups {
			if i > 0 && groups[i-1].Key >= g.Key {
				t.Fatalf("keys out of order: %q then %q", groups[i-1].Key, g.Key)
			}
			if g.Key != want[i].Key || !slices.EqualFunc(g.Values, want[i].Values, bytes.Equal) {
				t.Fatalf("group %d = %q %q, reference %q %q", i, g.Key, g.Values, want[i].Key, want[i].Values)
			}
		}
	}

	calls := 0
	counting := func(p Params, key string, values [][]byte, emit Emit) error {
		calls++
		return concatCombiner(p, key, values, emit)
	}
	out, err := combineStream(counting, nil, data)
	if refErr != nil {
		if err == nil || errors.Unwrap(err).Error() != refErr.Error() || calls != 0 {
			t.Fatalf("combineStream on corrupt stream: err=%v after %d calls, DecodeKVs err=%v", err, calls, refErr)
		}
		return
	}
	if err != nil {
		t.Fatalf("combineStream rejected a valid stream: %v", err)
	}
	defer putSpillBuf(out)
	combined, err := DecodeKVs(*out)
	if err != nil {
		t.Fatalf("combined stream corrupt: %v", err)
	}
	want := make(map[string][][]byte)
	var order []string
	for _, kv := range kvs {
		if _, ok := want[kv.Key]; !ok {
			order = append(order, kv.Key)
		}
		want[kv.Key] = append(want[kv.Key], kv.Value)
	}
	if len(combined) != len(order) {
		t.Fatalf("combineStream emitted %d keys, want %d", len(combined), len(order))
	}
	for i, kv := range combined {
		if kv.Key != order[i] {
			t.Fatalf("combined key %d = %q, want first-appearance %q", i, kv.Key, order[i])
		}
		inner, err := DecodeKVs(kv.Value)
		if err != nil {
			t.Fatalf("combined value of %q corrupt: %v", kv.Key, err)
		}
		values := make([][]byte, len(inner))
		for j, p := range inner {
			values[j] = p.Value
		}
		if !slices.EqualFunc(values, want[kv.Key], bytes.Equal) {
			t.Fatalf("combined values of %q = %q, want %q", kv.Key, values, want[kv.Key])
		}
	}
}
