package vp

import (
	"encoding/binary"
	"fmt"
	"math"

	"semibfs/internal/bfs"
)

// Program-state serialization: a compact snapshot format for per-vertex
// state vectors (parent trees, component labels, rank vectors), used to
// report state compressibility in AlgoSweep and to checkpoint results.
// Integer vectors are delta+zig-zag varint encoded — parent trees and
// converged labels are locally similar, so they shrink well — and float
// vectors are raw little-endian bits (ranks do not delta-compress).
//
// Both layouts carry a one-byte tag and a varint count, so UnpackState can
// dispatch, and both unpackers validate against truncated or oversized
// input (FuzzVertexState exercises them with arbitrary bytes).

const (
	stateTagInt64   = 0x69 // 'i'
	stateTagFloat64 = 0x66 // 'f'
)

// PackInt64s appends a packed snapshot of vals to dst and returns the
// extended slice.
func PackInt64s(dst []byte, vals []int64) []byte {
	dst = append(dst, stateTagInt64)
	dst = binary.AppendUvarint(dst, uint64(len(vals)))
	prev := int64(0)
	for _, v := range vals {
		dst = binary.AppendVarint(dst, v-prev)
		prev = v
	}
	return dst
}

// UnpackInt64s decodes a PackInt64s snapshot, appending into out[:0].
func UnpackInt64s(data []byte, out []int64) ([]int64, error) {
	payload, count, err := stateHeader(data, stateTagInt64, 1)
	if err != nil {
		return nil, err
	}
	if cap(out) < int(count) {
		out = make([]int64, 0, count)
	}
	out = out[:0]
	prev := int64(0)
	for i := uint64(0); i < count; i++ {
		d, n := binary.Varint(payload)
		if n <= 0 {
			return nil, fmt.Errorf("vp: state: bad varint at entry %d", i)
		}
		payload = payload[n:]
		prev += d
		out = append(out, prev)
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("vp: state: %d trailing bytes", len(payload))
	}
	return out, nil
}

// PackFloat64s appends a packed snapshot of vals to dst and returns the
// extended slice.
func PackFloat64s(dst []byte, vals []float64) []byte {
	dst = append(dst, stateTagFloat64)
	dst = binary.AppendUvarint(dst, uint64(len(vals)))
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// UnpackFloat64s decodes a PackFloat64s snapshot, appending into out[:0].
func UnpackFloat64s(data []byte, out []float64) ([]float64, error) {
	payload, count, err := stateHeader(data, stateTagFloat64, 8)
	if err != nil {
		return nil, err
	}
	if uint64(len(payload)) != count*8 {
		return nil, fmt.Errorf("vp: state: %d payload bytes for %d floats", len(payload), count)
	}
	if cap(out) < int(count) {
		out = make([]float64, 0, count)
	}
	out = out[:0]
	for i := uint64(0); i < count; i++ {
		out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(payload[i*8:])))
	}
	return out, nil
}

// stateHeader validates the tag and count prefix and returns the payload.
// minBytes is the smallest possible encoding of one entry, bounding count
// against allocation attacks from corrupt input.
func stateHeader(data []byte, tag byte, minBytes uint64) ([]byte, uint64, error) {
	if len(data) == 0 {
		return nil, 0, fmt.Errorf("vp: state: empty snapshot")
	}
	if data[0] != tag {
		return nil, 0, fmt.Errorf("vp: state: tag %#x, want %#x", data[0], tag)
	}
	count, n := binary.Uvarint(data[1:])
	if n <= 0 {
		return nil, 0, fmt.Errorf("vp: state: bad count varint")
	}
	payload := data[1+n:]
	if count > uint64(len(payload))/minBytes {
		return nil, 0, fmt.Errorf("vp: state: count %d exceeds %d payload bytes", count, len(payload))
	}
	return payload, count, nil
}

// StateBytes returns the packed size of a program's result state — the
// BFS parent tree, the component labels, or the PageRank ranks — or 0 for
// programs without a snapshot form.
func StateBytes(p bfs.Program) int64 {
	var b []byte
	switch p := p.(type) {
	case *bfs.BFS:
		b = PackInt64s(nil, p.Tree())
	case *Components:
		b = PackInt64s(nil, p.Labels())
	case *PageRank:
		b = PackFloat64s(nil, p.Ranks())
	}
	return int64(len(b))
}
