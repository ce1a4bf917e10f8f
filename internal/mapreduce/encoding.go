package mapreduce

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
)

// KV is one key-value pair in the intermediate and output streams.
type KV struct {
	Key   string
	Value []byte
}

// Intermediate spills and reduce outputs cross the wire and the DHT file
// system as flat streams of length-prefixed pairs:
//
//	u32 keyLen | key | u32 valueLen | value | ...
//
// A hand-rolled format (rather than gob) keeps spills append-concatenable:
// the byte concatenation of two streams is the stream of their
// concatenated pairs, which is exactly what segment append gives us.

// AppendKV appends one encoded pair to buf and returns the extended slice.
func AppendKV(buf []byte, kv KV) []byte {
	var l [4]byte
	binary.BigEndian.PutUint32(l[:], uint32(len(kv.Key)))
	buf = append(buf, l[:]...)
	buf = append(buf, kv.Key...)
	binary.BigEndian.PutUint32(l[:], uint32(len(kv.Value)))
	buf = append(buf, l[:]...)
	buf = append(buf, kv.Value...)
	return buf
}

// EncodeKVs encodes a pair slice as one stream.
func EncodeKVs(kvs []KV) []byte {
	size := 0
	for _, kv := range kvs {
		size += 8 + len(kv.Key) + len(kv.Value)
	}
	buf := make([]byte, 0, size)
	for _, kv := range kvs {
		buf = AppendKV(buf, kv)
	}
	return buf
}

// DecodeKVs parses a stream back into pairs. Values are copied out of
// data, so the result outlives the input buffer.
func DecodeKVs(data []byte) ([]KV, error) {
	var out []KV
	for off := 0; off < len(data); {
		key, value, next, err := nextKV(data, off)
		if err != nil {
			return nil, err
		}
		out = append(out, KV{Key: string(key), Value: append([]byte(nil), value...)})
		off = next
	}
	return out, nil
}

// nextKV is the one bounds-checked walker over an encoded stream: it
// parses the pair starting at off and returns its key and value as
// subslices of data (the value capped at its length) plus the offset of
// the next pair.
func nextKV(data []byte, off int) (key, value []byte, next int, err error) {
	if off+4 > len(data) {
		return nil, nil, 0, fmt.Errorf("mapreduce: truncated key length at offset %d", off)
	}
	// The wire lengths are untrusted u32s: bound them against the
	// remaining bytes in uint64 space *before* converting to int, so a
	// corrupt stream with a length >= 2^31 errors out instead of going
	// negative and panicking on 32-bit platforms.
	klen64 := uint64(binary.BigEndian.Uint32(data[off:]))
	off += 4
	if klen64 > uint64(len(data)-off) {
		return nil, nil, 0, fmt.Errorf("mapreduce: truncated key at offset %d", off)
	}
	klen := int(klen64)
	key = data[off : off+klen]
	off += klen
	if off+4 > len(data) {
		return nil, nil, 0, fmt.Errorf("mapreduce: truncated value length at offset %d", off)
	}
	vlen64 := uint64(binary.BigEndian.Uint32(data[off:]))
	off += 4
	if vlen64 > uint64(len(data)-off) {
		return nil, nil, 0, fmt.Errorf("mapreduce: truncated value at offset %d", off)
	}
	vlen := int(vlen64)
	return key, data[off : off+vlen : off+vlen], off + vlen, nil
}

// pairRef locates one validated pair inside its stream: the pair starts
// at off, its key at off+4 and its value at off+8+keyLen. Sixteen bytes
// per pair is all the reduce-side sort moves.
type pairRef struct {
	off            uint64
	keyLen, valLen uint32
}

func (p pairRef) key(data []byte) []byte {
	k := int(p.off) + 4
	return data[k : k+int(p.keyLen)]
}

func (p pairRef) value(data []byte) []byte {
	v := int(p.off) + 8 + int(p.keyLen)
	return data[v : v+int(p.valLen) : v+int(p.valLen)]
}

// GroupByKey is the reducer contract over an encoded stream: it calls fn
// once per distinct key, in increasing byte order of keys, with that
// key's values in stream order. The values alias data and the slice
// holding them is reused between calls, so fn must neither modify nor
// keep them. A corrupt stream is rejected before fn is first called.
func GroupByKey(data []byte, fn func(key string, values [][]byte) error) error {
	var pairs []pairRef
	for off := 0; off < len(data); {
		key, value, next, err := nextKV(data, off)
		if err != nil {
			return err
		}
		pairs = append(pairs, pairRef{off: uint64(off), keyLen: uint32(len(key)), valLen: uint32(len(value))})
		off = next
	}
	// Offsets are unique, so breaking ties on them makes the sort stable
	// by construction.
	slices.SortFunc(pairs, func(a, b pairRef) int {
		if c := bytes.Compare(a.key(data), b.key(data)); c != 0 {
			return c
		}
		return cmp.Compare(a.off, b.off)
	})
	var values [][]byte
	for i := 0; i < len(pairs); {
		key := pairs[i].key(data)
		values = values[:0]
		j := i
		for ; j < len(pairs) && bytes.Equal(pairs[j].key(data), key); j++ {
			values = append(values, pairs[j].value(data))
		}
		if err := fn(string(key), values[:len(values):len(values)]); err != nil {
			return err
		}
		i = j
	}
	return nil
}
