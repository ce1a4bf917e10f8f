package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
)

// Raw frames are the fast path for bulk-data methods (segment push and
// fetch): a small gob-encoded header describes the payload, and the
// payload itself — already length-prefixed KV bytes on the shuffle path —
// rides behind it verbatim instead of round-tripping through gob's
// reflection-driven Encode/Decode. The frame is an opaque call body to
// every Network implementation, so the TCP envelope, chaos
// injection, retry and trace propagation all apply unchanged:
//
//	u32 headerLen | gob(header) | payload...

// EncodeFrame builds a raw frame from a header value and zero or more
// payload segments (concatenated in order). The segments are copied into
// the frame exactly once; no per-byte encoding pass touches them.
func EncodeFrame(hdr any, payload ...[]byte) ([]byte, error) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 0}) // header-length placeholder
	if err := gob.NewEncoder(&buf).Encode(hdr); err != nil {
		return nil, fmt.Errorf("transport: encode frame header: %w", err)
	}
	hdrLen := buf.Len() - 4
	total := buf.Len()
	for _, p := range payload {
		total += len(p)
	}
	buf.Grow(total - buf.Len())
	for _, p := range payload {
		buf.Write(p)
	}
	out := buf.Bytes()
	binary.BigEndian.PutUint32(out, uint32(hdrLen))
	return out, nil
}

// DecodeFrame decodes a raw frame's header into hdr (a pointer) and
// returns the payload as a sub-slice of body — zero copy; the payload
// aliases body and stays valid as long as body does. The untrusted
// header length is bounds-checked in uint64 space before any conversion
// so a corrupt frame errors instead of panicking, on every platform.
func DecodeFrame(body []byte, hdr any) ([]byte, error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("transport: frame too short for header length (%d bytes)", len(body))
	}
	hdrLen64 := uint64(binary.BigEndian.Uint32(body))
	if hdrLen64 > uint64(len(body)-4) {
		return nil, fmt.Errorf("transport: frame header length %d exceeds body (%d bytes)", hdrLen64, len(body))
	}
	hdrLen := int(hdrLen64)
	if err := gob.NewDecoder(bytes.NewReader(body[4 : 4+hdrLen])).Decode(hdr); err != nil {
		return nil, fmt.Errorf("transport: decode frame header: %w", err)
	}
	return body[4+hdrLen:], nil
}
