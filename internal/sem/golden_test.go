package sem

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/graph"
)

// goldenGraph is the fixed 64-vertex weighted directed graph behind
// TestWriteGoldenBytes. Its edges come from a hand-rolled LCG, not math/rand,
// so the input cannot move with the toolchain; vertices 60..63 have no
// out-edges, so empty extents are part of the pinned layout. symmetrize
// yields its undirected twin (every edge also reversed; no sinks left), the
// only kind of graph a file may be flagged symmetric for.
func goldenGraph(t testing.TB, symmetrize bool) *graph.CSR[uint32] {
	t.Helper()
	b := graph.NewBuilder[uint32](64, true)
	x := uint64(0x9E3779B97F4A7C15)
	next := func(mod uint64) uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return (x >> 33) % mod
	}
	for i := 0; i < 400; i++ {
		b.AddEdge(uint32(next(60)), uint32(next(64)), graph.Weight(1+next(1000)))
	}
	if symmetrize {
		b.Symmetrize()
	}
	g, err := b.Build(true)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestWriteGoldenBytes pins the on-flash layout byte for byte: every other
// test in the package is a round trip, which a writer and reader that drift
// together still pass. A digest here may change only with a deliberate
// format revision.
func TestWriteGoldenBytes(t *testing.T) {
	directed, twin := goldenGraph(t, false), goldenGraph(t, true)
	shard := &ShardConfig{Shard: 1, Shards: 3}
	for _, tc := range []struct {
		name string
		cfg  WriteConfig
		want string
	}{
		{"v1/plain", WriteConfig{}, "6f0a910becaef21982393cf797d27257f60b1b636d273e2875cd0699da7ce663"},
		{"v1/inedges", WriteConfig{InEdges: true}, "aaf12dfefb02c2493b962ddb60a8d861042bfb0389fa100d84b493ad0aff58db"},
		{"v1/symmetric", WriteConfig{Symmetric: true}, "79ad0afa6796b24ba94d2a774bdd24029fdd0b7a4eb5d8ac6dcb56862be068f1"},
		{"v1/shard1of3-inedges", WriteConfig{InEdges: true, Shard: shard}, "55f3ac6d3a0cebc7aa1b73be1c22e90690b062127c94f544f58f456823ea0832"},
		{"v2/plain", WriteConfig{Compress: true}, "0100497212880c7abd62c063f185f4fc733d38a8bc9163ffe8cadef68bcb66f5"},
		{"v2/inedges", WriteConfig{Compress: true, InEdges: true}, "7f0263a7743dc853e7bf87e75b0aa70d744e551eb09282b30a052c35ae034d37"},
		{"v2/symmetric", WriteConfig{Compress: true, Symmetric: true}, "47954ed6303f48dfa98146b441f245eab182714a4231ae5999a7519e144d8281"},
		{"v2/shard1of3-inedges", WriteConfig{Compress: true, InEdges: true, Shard: shard}, "aa6fc26c63bc36a0d386b9cc4a7726f2622406f576b5a687dda3a700c8dc137a"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The symmetric cells pin the twin: Write refuses the flag for
			// the directed graph, which used to get it on the caller's word.
			g := directed
			if tc.cfg.Symmetric {
				g = twin
			}
			var buf bytes.Buffer
			if err := Write(&buf, g, tc.cfg); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Fatalf("%d bytes, sha256 %s, want %s", buf.Len(), got, tc.want)
			}
		})
	}
}
