package graph

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// encodeList sorts a copy of ts (weights carried along when non-nil) and
// encodes it as one block for v.
func encodeList(t *testing.T, v uint32, ts []uint32, ws []Weight) ([]byte, []uint32, []Weight) {
	t.Helper()
	targets := append([]uint32(nil), ts...)
	var weights []Weight
	if ws != nil {
		weights = append([]Weight(nil), ws...)
		sort.Sort(&pairSort[uint32]{t: targets, w: weights})
	} else {
		sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	}
	block, err := AppendAdjBlock(nil, v, targets, weights)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return block, targets, weights
}

func TestAdjBlockRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		v    uint32
		ts   []uint32
		ws   []Weight
	}{
		{"empty", 5, nil, nil},
		{"self-loop", 7, []uint32{7}, nil},
		{"below-source", 100, []uint32{0, 1, 99}, nil},
		{"above-source", 0, []uint32{1, 2, 1 << 30}, nil},
		{"duplicates", 3, []uint32{4, 4, 4}, nil},
		{"weighted", 9, []uint32{1, 9, 20}, []Weight{0, ^Weight(0), 7}},
		{"max-ids", ^uint32(0), []uint32{0, ^uint32(0)}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			block, want, wantW := encodeList(t, tc.v, tc.ts, tc.ws)
			got := make([]uint32, len(want))
			var gotW []Weight
			if wantW != nil {
				gotW = make([]Weight, len(wantW))
			}
			n, err := DecodeAdjBlock(block, tc.v, got, gotW)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if n != len(block) {
				t.Fatalf("consumed %d of %d block bytes", n, len(block))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("target[%d] = %d, want %d", i, got[i], want[i])
				}
			}
			for i := range wantW {
				if gotW[i] != wantW[i] {
					t.Fatalf("weight[%d] = %d, want %d", i, gotW[i], wantW[i])
				}
			}
		})
	}
}

func TestAppendAdjBlockRejectsUnsorted(t *testing.T) {
	if _, err := AppendAdjBlock(nil, uint32(0), []uint32{5, 3}, nil); err != ErrUnsortedAdjacency {
		t.Fatalf("err = %v, want ErrUnsortedAdjacency", err)
	}
}

func TestDecodeAdjBlockTruncated(t *testing.T) {
	block, _, _ := encodeList(t, 10, []uint32{2, 11, 4000}, []Weight{1, 2, 3})
	targets := make([]uint32, 3)
	weights := make([]Weight, 3)
	for cut := 0; cut < len(block); cut++ {
		if _, err := DecodeAdjBlock(block[:cut], uint32(10), targets, weights); err != ErrCorruptBlock {
			t.Fatalf("cut=%d: err = %v, want ErrCorruptBlock", cut, err)
		}
	}
}

// Decoding with a 32-bit vertex type must reject blocks whose gaps walk the
// running id past the vertex width instead of silently truncating.
func TestDecodeAdjBlockOverflow(t *testing.T) {
	block, err := AppendAdjBlock(nil, uint64(1), []uint64{1 << 40}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeAdjBlock(block, uint32(1), make([]uint32, 1), nil); err != ErrCorruptBlock {
		t.Fatalf("err = %v, want ErrCorruptBlock", err)
	}
}

// FuzzAdjBlockRoundTrip drives the codec with arbitrary adjacency lists:
// whatever AppendAdjBlock encodes, DecodeAdjBlock must reproduce exactly and
// consume to the byte.
func FuzzAdjBlockRoundTrip(f *testing.F) {
	f.Add(uint32(0), []byte{})
	f.Add(uint32(7), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(^uint32(0), []byte{255, 255, 255, 255, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, v uint32, raw []byte) {
		if len(raw) > 1<<12 {
			return
		}
		// Interpret the fuzz bytes as a neighbor list: 4 bytes of target + 1
		// byte of weight per edge.
		var ts []uint32
		var ws []Weight
		for i := 0; i+5 <= len(raw); i += 5 {
			ts = append(ts, uint32(raw[i])|uint32(raw[i+1])<<8|uint32(raw[i+2])<<16|uint32(raw[i+3])<<24)
			ws = append(ws, Weight(raw[i+4]))
		}
		if len(ts) == 0 {
			return
		}
		sort.Sort(&pairSort[uint32]{t: ts, w: ws})
		block, err := AppendAdjBlock(nil, v, ts, ws)
		if err != nil {
			t.Fatalf("encode sorted list: %v", err)
		}
		got := make([]uint32, len(ts))
		gotW := make([]Weight, len(ws))
		n, err := DecodeAdjBlock(block, v, got, gotW)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if n != len(block) {
			t.Fatalf("consumed %d of %d bytes", n, len(block))
		}
		for i := range ts {
			if got[i] != ts[i] || gotW[i] != ws[i] {
				t.Fatalf("edge %d: got (%d,%d), want (%d,%d)", i, got[i], gotW[i], ts[i], ws[i])
			}
		}
	})
}

// FuzzDecodeAdjBlock feeds arbitrary bytes to the decoder: it must never
// panic or read past the block, whatever degree the index claims.
func FuzzDecodeAdjBlock(f *testing.F) {
	f.Add([]byte{}, uint8(1), uint32(0), true)
	f.Add([]byte{0x80}, uint8(3), uint32(9), false)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, uint8(4), ^uint32(0), true)
	f.Fuzz(func(t *testing.T, block []byte, deg uint8, v uint32, weighted bool) {
		targets := make([]uint32, deg)
		var weights []Weight
		if weighted {
			weights = make([]Weight, deg)
		}
		n, err := DecodeAdjBlock(block, v, targets, weights)
		if err == nil && n > len(block) {
			t.Fatalf("consumed %d bytes of a %d-byte block", n, len(block))
		}
	})
}

// Property: compressed and raw CSR expose identical adjacency — same order,
// same weights — for any Builder input (Builder sorts targets, so no
// reordering is involved).
func TestQuickCompressedMatchesRawAdjacency(t *testing.T) {
	type rawEdge struct {
		S, D uint8
		W    uint16
	}
	f := func(raw []rawEdge, weighted, dedup bool) bool {
		const n = 256
		b := NewBuilder[uint32](n, weighted)
		for _, e := range raw {
			b.AddEdge(uint32(e.S), uint32(e.D), Weight(e.W))
		}
		g, err := b.Build(dedup)
		if err != nil {
			return false
		}
		c, err := Compress(g)
		if err != nil {
			return false
		}
		if c.NumVertices() != g.NumVertices() || c.NumEdges() != g.NumEdges() || c.Weighted() != g.Weighted() {
			return false
		}
		scratch := &Scratch[uint32]{}
		for v := uint32(0); v < n; v++ {
			if c.Degree(v) != g.Degree(v) {
				return false
			}
			wantT, wantW, _ := g.Neighbors(v, nil)
			gotT, gotW, err := c.Neighbors(v, scratch)
			if err != nil || len(gotT) != len(wantT) {
				return false
			}
			for i := range wantT {
				if gotT[i] != wantT[i] {
					return false
				}
				if weighted && gotW[i] != wantW[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestCompressDecompressRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n, m = 500, 4000
	b := NewBuilder[uint32](n, true)
	for i := 0; i < m; i++ {
		b.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)), Weight(rng.Uint32()))
	}
	g, err := b.Build(false)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compress(g)
	if err != nil {
		t.Fatal(err)
	}
	if c.CompressedBytes() >= int64(g.NumEdges()*8) {
		t.Fatalf("compression did not shrink: %d blob bytes for %d raw", c.CompressedBytes(), g.NumEdges()*8)
	}
	if c.NumEdges() != g.NumEdges() {
		t.Fatalf("edge count changed: %d -> %d", g.NumEdges(), c.NumEdges())
	}
	for v := uint32(0); v < n; v++ {
		wt, ww, _ := g.Neighbors(v, nil)
		bt, bw, err := c.Neighbors(v, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(wt) != len(bt) {
			t.Fatalf("vertex %d degree changed", v)
		}
		for i := range wt {
			if wt[i] != bt[i] || ww[i] != bw[i] {
				t.Fatalf("vertex %d edge %d: (%d,%d) -> (%d,%d)", v, i, wt[i], ww[i], bt[i], bw[i])
			}
		}
	}
}
