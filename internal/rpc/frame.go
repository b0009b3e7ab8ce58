package rpc

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// This file is the bulk binary codec of the data plane: length-prefixed
// little-endian frames for []float64 payloads (via math.Float64bits, so
// NaN payloads and infinities round-trip bit-exactly), tiny helpers for
// the string/int headers of data-plane messages, and a sync.Pool of
// recycled byte buffers that keeps the steady-state pull/push cycle free
// of per-iteration allocations.

const (
	// maxPooledBuffer keeps pathological one-off giants (a full-model
	// snapshot of an enormous job) from pinning pool memory forever.
	maxPooledBuffer = 1 << 26

	// minPooledBuffer is the smallest capacity GetBuffer hands out, so
	// ack-sized buffers still amortize across reuse.
	minPooledBuffer = 1 << 10
)

var bufPool sync.Pool

// GetBuffer returns a length-n byte slice from the shared pool, growing
// capacity as needed. The contents are unspecified; callers that append
// should slice it to [:0] first.
func GetBuffer(n int) []byte {
	if v := bufPool.Get(); v != nil {
		b := *(v.(*[]byte))
		if cap(b) >= n {
			return b[:n]
		}
	}
	c := minPooledBuffer
	for c < n {
		c <<= 1
	}
	return make([]byte, n, c)
}

// PutBuffer returns a buffer to the pool. Nil and oversized buffers are
// dropped. The caller must not touch b afterwards.
func PutBuffer(b []byte) {
	if b == nil || cap(b) == 0 || cap(b) > maxPooledBuffer {
		return
	}
	b = b[:0]
	bufPool.Put(&b)
}

// FloatsLen reports the encoded size of an n-element float frame.
func FloatsLen(n int) int { return 4 + 8*n }

// AppendFloats appends a length-prefixed little-endian encoding of vals
// to dst and returns the extended slice. Layout: u32 count, then count
// raw IEEE-754 bit patterns (8 bytes each).
func AppendFloats(dst []byte, vals []float64) []byte {
	off := len(dst)
	need := FloatsLen(len(vals))
	if cap(dst)-off < need {
		grown := make([]byte, off, roundUp(off+need))
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:off+need]
	binary.LittleEndian.PutUint32(dst[off:], uint32(len(vals)))
	off += 4
	for _, v := range vals {
		binary.LittleEndian.PutUint64(dst[off:], math.Float64bits(v))
		off += 8
	}
	return dst
}

func roundUp(n int) int {
	c := minPooledBuffer
	for c < n {
		c <<= 1
	}
	return c
}

// ReadFloats decodes one float frame from b into dst (reused when its
// capacity suffices, so steady-state pulls decode without allocating)
// and returns the decoded values plus the bytes following the frame.
func ReadFloats(b []byte, dst []float64) (vals []float64, rest []byte, err error) {
	count, data, rest, err := FloatFrame(b)
	if err != nil {
		return nil, nil, err
	}
	if cap(dst) < count {
		dst = make([]float64, count)
	} else {
		dst = dst[:count]
	}
	for i := range dst {
		dst[i] = FloatAt(data, i)
	}
	return dst, rest, nil
}

// FloatFrame validates a float frame in place and returns its element
// count, the raw element bytes, and the remainder of b. It performs no
// copies: accumulate-style consumers (the PS push handler) read elements
// straight off the wire with FloatAt.
func FloatFrame(b []byte) (count int, data []byte, rest []byte, err error) {
	if len(b) < 4 {
		return 0, nil, nil, fmt.Errorf("rpc: float frame truncated: %d header bytes", len(b))
	}
	count = int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if count > maxFrame/8 {
		return 0, nil, nil, fmt.Errorf("rpc: float frame count %d exceeds limit", count)
	}
	if len(b) < 8*count {
		return 0, nil, nil, fmt.Errorf("rpc: float frame truncated: want %d value bytes, have %d", 8*count, len(b))
	}
	return count, b[:8*count], b[8*count:], nil
}

// FloatAt reads element i of a validated float-frame data section.
func FloatAt(data []byte, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
}

// AppendString appends a u16-length-prefixed string (data-plane message
// headers; method-name-sized, not bulk).
func AppendString(dst []byte, s string) []byte {
	if len(s) > 1<<16-1 {
		s = s[:1<<16-1]
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

// ReadString decodes a u16-length-prefixed string and returns the rest.
func ReadString(b []byte) (s string, rest []byte, err error) {
	if len(b) < 2 {
		return "", nil, fmt.Errorf("rpc: string header truncated")
	}
	n := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return "", nil, fmt.Errorf("rpc: string truncated: want %d bytes, have %d", n, len(b))
	}
	return string(b[:n]), b[n:], nil
}

// AppendUint32 appends a little-endian u32 (offsets and counts in
// data-plane message headers).
func AppendUint32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

// ReadUint32 decodes a little-endian u32 and returns the rest.
func ReadUint32(b []byte) (v uint32, rest []byte, err error) {
	if len(b) < 4 {
		return 0, nil, fmt.Errorf("rpc: uint32 truncated")
	}
	return binary.LittleEndian.Uint32(b), b[4:], nil
}

// AppendUint64 appends a little-endian u64 (stripe versions in handoff
// frames).
func AppendUint64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

// ReadUint64 decodes a little-endian u64 and returns the rest.
func ReadUint64(b []byte) (v uint64, rest []byte, err error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("rpc: uint64 truncated")
	}
	return binary.LittleEndian.Uint64(b), b[8:], nil
}
