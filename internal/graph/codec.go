package graph

// This file is the delta + varint adjacency block codec shared by the
// in-memory CompressedCSR and the semi-external format v2 (WebGraph-style,
// the representation trick FlashGraph-class engines use to multiply their
// effective IOPS ceiling). One vertex's sorted neighbor list becomes one
// variable-length block:
//
//	zigzag(targets[0] - v)            first gap, signed relative to the source
//	targets[i] - targets[i-1]         remaining gaps, unsigned (sorted input)
//	weights[0..deg)                   parallel varint stream, weighted graphs
//
// all as unsigned LEB128 varints (encoding/binary's Uvarint). The first gap
// is taken relative to the source vertex because RMAT/web-like graphs are
// locally clustered: a neighbor near its source costs one or two bytes
// instead of a full id. Block boundaries live outside the block (the
// CompressedCSR byte-offset index, the sem v2 block-extent index), as does
// the neighbor count — a block cannot be decoded without its (v, degree)
// pair, and carries no redundancy to validate against beyond its length.

import "encoding/binary"

// errCorruptBlock is the shared decode failure: a block that ends before its
// degree is satisfied or that encodes an id outside V's range. A sentinel
// (not fmt.Errorf) because decode is a traversal hot path.
type codecError string

func (e codecError) Error() string { return string(e) }

// ErrCorruptBlock reports a compressed adjacency block inconsistent with its
// recorded degree: truncated varints or values overflowing the vertex width.
const ErrCorruptBlock = codecError("graph: corrupt compressed adjacency block")

// ErrUnsortedAdjacency reports an encode request whose neighbor list is not
// sorted ascending; delta encoding requires non-negative gaps.
const ErrUnsortedAdjacency = codecError("graph: adjacency list is not sorted ascending")

// zigzagGap encodes the signed distance from v to t without overflow:
// distances of either sign map onto the unsigned varint domain with small
// magnitudes staying small (0, -1, 1, -2, ... -> 0, 1, 2, 3, ...).
func zigzagGap(v, t uint64) uint64 {
	if t >= v {
		return (t - v) << 1
	}
	return (v-t)<<1 - 1
}

// unzigzagGap inverts zigzagGap.
func unzigzagGap(v, z uint64) uint64 {
	if z&1 == 0 {
		return v + z>>1
	}
	return v - (z>>1 + 1)
}

// AppendAdjBlock appends the encoded adjacency block of vertex v to dst and
// returns the extended slice. targets must be sorted ascending (duplicates
// allowed); weights must be nil or parallel to targets. A zero-degree vertex
// encodes to zero bytes.
func AppendAdjBlock[V Vertex](dst []byte, v V, targets []V, weights []Weight) ([]byte, error) {
	if len(targets) == 0 {
		return dst, nil
	}
	dst = binary.AppendUvarint(dst, zigzagGap(uint64(v), uint64(targets[0])))
	prev := uint64(targets[0])
	for _, t := range targets[1:] {
		if uint64(t) < prev {
			return dst, ErrUnsortedAdjacency
		}
		dst = binary.AppendUvarint(dst, uint64(t)-prev)
		prev = uint64(t)
	}
	for _, w := range weights {
		dst = binary.AppendUvarint(dst, uint64(w))
	}
	return dst, nil
}

// DecodeAdjBlock decodes the adjacency block of vertex v into the caller's
// pre-sized slices: len(targets) is the degree and len(weights) must be 0 or
// the degree. It returns the number of block bytes consumed. The slices are
// the per-worker scratch of the traversal engine — the call allocates
// nothing and never panics on arbitrary block bytes.
//
//lint:hotpath
func DecodeAdjBlock[V Vertex](block []byte, v V, targets []V, weights []Weight) (int, error) {
	if len(targets) == 0 {
		return 0, nil
	}
	z, n := binary.Uvarint(block)
	if n <= 0 {
		return 0, ErrCorruptBlock
	}
	off := n
	prev := unzigzagGap(uint64(v), z)
	if prev > uint64(^V(0)) {
		return 0, ErrCorruptBlock
	}
	targets[0] = V(prev)
	for i := 1; i < len(targets); i++ {
		gap, n := binary.Uvarint(block[off:])
		if n <= 0 {
			return 0, ErrCorruptBlock
		}
		off += n
		prev += gap
		if prev > uint64(^V(0)) {
			return 0, ErrCorruptBlock
		}
		targets[i] = V(prev)
	}
	for i := range weights {
		w, n := binary.Uvarint(block[off:])
		if n <= 0 || w > uint64(^Weight(0)) {
			return 0, ErrCorruptBlock
		}
		off += n
		weights[i] = Weight(w)
	}
	return off, nil
}
