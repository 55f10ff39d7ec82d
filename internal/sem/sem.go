// Package sem implements the paper's semi-external memory graph storage
// (§IV-C): "enough memory to store algorithmic information about the
// vertices but not edges". The vertex index array lives in RAM; the edge
// records stay on the storage device and every adjacency access is an
// explicit random read, issued concurrently by the traversal workers so the
// device's internal parallelism is exercised.
//
// Two on-device layouts share the header. Format v1 is a raw compressed
// sparse row:
//
//	header (40 bytes): magic "ASG1", version, flags, n, m
//	offsets: (n+1) x uint64        -- edge counts, loaded into RAM at open
//	edges:   m x record            -- fetched per-visit with ReadAt
//
// A record is the target vertex id (4 or 8 bytes per the vertex width flag)
// followed by a uint32 weight when the graph is weighted. Format v2 replaces
// the fixed-width edge region with delta+varint compressed per-vertex blocks
// (graph.AppendAdjBlock) behind a block-extent index:
//
//	header (40 bytes): magic "ASG1", version=2, flags|compressed, n, m, blob size
//	offsets: (n+1) x uint64        -- BYTE offsets of each block in the blob
//	degrees: n x uint32            -- neighbor counts (blocks are self-delimiting
//	                                  in bytes via the index, not in edges)
//	blob:    concatenated blocks   -- fetched per-visit with ReadAt
//
// The offsets and degrees are the RAM-resident vertex information; the blob
// is what the traversal reads from flash, typically 2-4x smaller than the v1
// edge region. All integers are little-endian.
package sem

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/graph"
)

// Magic identifies the graph file format ("ASG1": Async Semi-external Graph).
const Magic = 0x31475341

// Format versions: v1 stores raw fixed-width edge records, v2 stores
// delta+varint compressed adjacency blocks behind a block-extent index.
// Open accepts both; Write emits v1, or v2 under WriteConfig.Compress.
const (
	Version           = 1
	VersionCompressed = 2
)

// Header flags.
const (
	flagWeighted   = 1 << 0
	flag64Bit      = 1 << 1
	flagCompressed = 1 << 2
	// flagSharded marks a file holding one shard of a hash-partitioned graph;
	// a 24-byte shard map (see sharded.go) follows the header before the
	// vertex index. Files without the flag are byte-identical to pre-shard
	// writers' output.
	flagSharded = 1 << 3
	// flagInEdges marks a file carrying a reverse-adjacency (in-edge) section
	// after the edge region, the storage behind bottom-up traversal phases:
	//
	//	v1: in-offsets (n+1) x uint64   -- edge-record counts
	//	    in-records  mIn x vertexId  -- source ids only, never weighted
	//	v2: in-index   (n+1) x uint64   -- BYTE offsets of in-blocks
	//	    in-degrees  n x uint32      -- in-neighbor counts
	//	    in-blob                     -- delta+varint blocks, no weight stream
	//
	// The section mirrors the file's own format version. Weights are never
	// stored: the only consumer is the bottom-up BFS step, which needs edge
	// sources, not costs.
	flagInEdges = 1 << 4
	// flagSymmetric asserts the out-adjacency is its own transpose (the writer
	// symmetrized the graph), so in-edge reads are served from the edge region
	// itself and no in-edge section exists. Mutually exclusive with
	// flagInEdges.
	flagSymmetric = 1 << 5
)

const headerSize = 40

// Store is the device interface a semi-external graph reads from: the
// simulated flash device, a real file, or anything positionally readable.
type Store interface {
	io.ReaderAt
}

// Graph is a semi-external CSR: offsets in memory, edges on the store.
// It implements graph.Adjacency.
type Graph[V graph.Vertex] struct {
	store   Store
	offsets []uint64 // n+1 entries, RAM-resident ("information about the vertices")
	// In format v1 offsets count edge records; in v2 they are byte offsets of
	// the compressed blocks within the blob, and degrees carries the neighbor
	// counts the byte extents cannot express.
	degrees    []uint32 // v2 only: out-degree per vertex
	n, m       uint64
	weighted   bool
	compressed bool
	recSize    int
	vSize      int
	edgeBase   int64 // byte offset of the first edge record (v2: of the blob)

	// Shard-map fields (zero values for plain files): this file holds shard
	// `shard` of a `shards`-way partition whose logical graph has totalEdges
	// edges; m counts only this shard's records.
	shard      int
	shards     int
	totalEdges uint64

	// In-edge section state (see flagInEdges / flagSymmetric). symmetric means
	// in-edges are served from the edge region; otherwise inOffsets (and, for
	// v2, inDegrees) index a dedicated reverse-adjacency section at
	// inEdgeBase. Both nil/false for files without reverse capability.
	symmetric  bool
	inOffsets  []uint64
	inDegrees  []uint32 // v2 in-sections only
	inEdgeBase int64

	// prefetch, when non-nil, services NeighborsBatch windows with coalesced
	// asynchronous span reads (see prefetch.go). Nil means NeighborsBatch is
	// a no-op and every Neighbors call reads synchronously.
	prefetch *Prefetcher

	// State-aware cache-policy glue (see state.go): set together by
	// EnableStateCache when the store is a CachedStore. state receives the
	// engine's settle notifications mapped to block ids; cache answers the
	// pop-window affinity probes. Both nil under the legacy LRU policy.
	state *StatePolicy
	cache *CachedStore
}

// vertexWidth reports the on-disk vertex id width for V.
func vertexWidth[V graph.Vertex]() int {
	if uint64(^V(0)) == uint64(^uint32(0)) {
		return 4
	}
	return 8
}

// writeHeader emits the 40-byte header and, when sm is non-nil, the 24-byte
// shard map that follows it.
func writeHeader(w io.Writer, version uint32, flags, n, m, blobBytes uint64, sm *shardMap) error {
	if sm != nil {
		flags |= flagSharded
	}
	header := make([]byte, headerSize)
	binary.LittleEndian.PutUint32(header[0:], Magic)
	binary.LittleEndian.PutUint32(header[4:], version)
	binary.LittleEndian.PutUint64(header[8:], flags)
	binary.LittleEndian.PutUint64(header[16:], n)
	binary.LittleEndian.PutUint64(header[24:], m)
	binary.LittleEndian.PutUint64(header[32:], blobBytes)
	if _, err := w.Write(header); err != nil {
		return fmt.Errorf("sem: write header: %w", err)
	}
	if sm != nil {
		if _, err := w.Write(sm.encode()); err != nil {
			return fmt.Errorf("sem: write shard map: %w", err)
		}
	}
	return nil
}

// WriteConfig selects the on-flash layout of Write, the one writer behind
// every CLI emit path: format version, reverse-adjacency capability, and
// shard extraction compose freely.
type WriteConfig struct {
	// Compress selects format v2 (delta+varint blocks) over raw v1 records.
	Compress bool
	// InEdges appends a reverse-adjacency section (flagInEdges) built from
	// the transpose of the logical graph, enabling bottom-up traversal
	// phases. Mutually exclusive with Symmetric.
	InEdges bool
	// Symmetric marks the out-adjacency as its own transpose (flagSymmetric):
	// direction-capable with zero extra storage. The caller asserts symmetry
	// (e.g. Builder.Symmetrize output); nothing is verified.
	Symmetric bool
	// Shard, when non-nil, extracts and writes that shard of g with a shard
	// map. The in-edge section of shard k holds the in-adjacency of k's owned
	// vertices (the transpose hash-partitions by destination, exactly as the
	// forward adjacency does by source).
	Shard *ShardConfig
}

// Validate rejects contradictory layout requests: the two reverse-adjacency
// capabilities are exclusive (a symmetric graph already serves in-edges from
// its edge region), and a shard request must name a member inside its range.
func (c *WriteConfig) Validate() error {
	_ = c.Compress // free toggle: v1 and v2 both support every capability below
	if c.InEdges && c.Symmetric {
		return fmt.Errorf("sem: InEdges and Symmetric are mutually exclusive (a symmetric graph already serves in-edges from its edge region)")
	}
	if c.Shard != nil {
		sc := *c.Shard
		sc.normalize()
		return sc.Validate()
	}
	return nil
}

// Write serializes an in-memory CSR into the semi-external format per cfg.
func Write[V graph.Vertex](w io.Writer, g *graph.CSR[V], cfg WriteConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	var sm *shardMap
	sub := g
	if cfg.Shard != nil {
		sc := *cfg.Shard
		sc.normalize()
		var err error
		if sub, err = graph.ExtractShard(g, sc.Shard, sc.Shards); err != nil {
			return err
		}
		sm = &shardMap{
			shard:      uint32(sc.Shard),
			shards:     uint32(sc.Shards),
			totalEdges: g.NumEdges(),
			hashID:     shardHashFib,
		}
	}
	var in *graph.CSR[V]
	if cfg.InEdges {
		t, err := graph.Transpose(g)
		if err != nil {
			return err
		}
		if cfg.Shard != nil {
			if t, err = graph.ExtractShard(t, cfg.Shard.Shard, cfg.Shard.Shards); err != nil {
				return err
			}
		}
		// The section stores sources only; drop the transposed weights.
		if in, err = graph.NewCSRRaw(t.Offsets(), t.Targets(), nil); err != nil {
			return err
		}
	}
	if cfg.Compress {
		c, err := graph.Compress(sub)
		if err != nil {
			return err
		}
		var inC *graph.CompressedCSR[V]
		if in != nil {
			if inC, err = graph.Compress(in); err != nil {
				return err
			}
		}
		return writeCompressed(w, c, inC, cfg.Symmetric, sm)
	}
	return writeCSR(w, sub, in, cfg.Symmetric, sm)
}

// sectionFlags folds the reverse-capability bits into flags.
func sectionFlags(flags uint64, hasIn, symmetric bool) uint64 {
	if hasIn {
		flags |= flagInEdges
	}
	if symmetric {
		flags |= flagSymmetric
	}
	return flags
}

func writeCSR[V graph.Vertex](w io.Writer, g, in *graph.CSR[V], symmetric bool, sm *shardMap) error {
	vSize := vertexWidth[V]()
	var flags uint64
	if g.Weighted() {
		flags |= flagWeighted
	}
	if vSize == 8 {
		flags |= flag64Bit
	}
	flags = sectionFlags(flags, in != nil, symmetric)
	if err := writeHeader(w, Version, flags, g.NumVertices(), g.NumEdges(), 0, sm); err != nil {
		return err
	}

	buf := make([]byte, 0, 1<<16)
	for _, off := range g.Offsets() {
		buf = binary.LittleEndian.AppendUint64(buf, off)
		if len(buf) >= 1<<16-8 {
			if _, err := w.Write(buf); err != nil {
				return fmt.Errorf("sem: write offsets: %w", err)
			}
			buf = buf[:0]
		}
	}
	targets := g.Targets()
	weights := g.WeightsRaw()
	for i, t := range targets {
		if vSize == 4 {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(t))
		} else {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(t))
		}
		if weights != nil {
			buf = binary.LittleEndian.AppendUint32(buf, weights[i])
		}
		if len(buf) >= 1<<16-16 {
			if _, err := w.Write(buf); err != nil {
				return fmt.Errorf("sem: write edges: %w", err)
			}
			buf = buf[:0]
		}
	}
	if in != nil {
		for _, off := range in.Offsets() {
			buf = binary.LittleEndian.AppendUint64(buf, off)
			if len(buf) >= 1<<16-8 {
				if _, err := w.Write(buf); err != nil {
					return fmt.Errorf("sem: write in-edge offsets: %w", err)
				}
				buf = buf[:0]
			}
		}
		for _, t := range in.Targets() {
			if vSize == 4 {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(t))
			} else {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(t))
			}
			if len(buf) >= 1<<16-16 {
				if _, err := w.Write(buf); err != nil {
					return fmt.Errorf("sem: write in-edge records: %w", err)
				}
				buf = buf[:0]
			}
		}
	}
	if len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("sem: write tail: %w", err)
		}
	}
	return nil
}

// writeCompressed serializes an already-compressed graph into format v2:
// header, block-extent index ((n+1) byte offsets), degree array, blob.
func writeCompressed[V graph.Vertex](w io.Writer, c, in *graph.CompressedCSR[V], symmetric bool, sm *shardMap) error {
	vSize := vertexWidth[V]()
	flags := uint64(flagCompressed)
	if c.Weighted() {
		flags |= flagWeighted
	}
	if vSize == 8 {
		flags |= flag64Bit
	}
	flags = sectionFlags(flags, in != nil, symmetric)
	blob := c.Blob()
	if err := writeHeader(w, VersionCompressed, flags, c.NumVertices(), c.NumEdges(), uint64(len(blob)), sm); err != nil {
		return err
	}
	if err := writeIndexAndBlob(w, c.BlockOffsets(), c.Degrees(), blob); err != nil {
		return err
	}
	if in != nil {
		return writeIndexAndBlob(w, in.BlockOffsets(), in.Degrees(), in.Blob())
	}
	return nil
}

// writeIndexAndBlob emits one v2 section: byte-offset index, degree array,
// then the block blob. Both the edge region and the in-edge section share
// this layout.
func writeIndexAndBlob(w io.Writer, offsets []uint64, degrees []uint32, blob []byte) error {
	buf := make([]byte, 0, 1<<16)
	for _, off := range offsets {
		buf = binary.LittleEndian.AppendUint64(buf, off)
		if len(buf) >= 1<<16-8 {
			if _, err := w.Write(buf); err != nil {
				return fmt.Errorf("sem: write block index: %w", err)
			}
			buf = buf[:0]
		}
	}
	for _, deg := range degrees {
		buf = binary.LittleEndian.AppendUint32(buf, deg)
		if len(buf) >= 1<<16-8 {
			if _, err := w.Write(buf); err != nil {
				return fmt.Errorf("sem: write degrees: %w", err)
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("sem: write degrees: %w", err)
		}
	}
	if _, err := w.Write(blob); err != nil {
		return fmt.Errorf("sem: write blocks: %w", err)
	}
	return nil
}

// Open reads the header and vertex index of a semi-external graph, leaving
// edge records on the store. The vertex width of V must match the file.
func Open[V graph.Vertex](store Store) (*Graph[V], error) {
	header := make([]byte, headerSize)
	if _, err := io.ReadFull(io.NewSectionReader(store, 0, headerSize), header); err != nil {
		return nil, fmt.Errorf("sem: read header: %w", err)
	}
	if m := binary.LittleEndian.Uint32(header[0:]); m != Magic {
		return nil, fmt.Errorf("sem: bad magic %#x", m)
	}
	version := binary.LittleEndian.Uint32(header[4:])
	if version != Version && version != VersionCompressed {
		return nil, fmt.Errorf("sem: unsupported version %d", version)
	}
	flags := binary.LittleEndian.Uint64(header[8:])
	n := binary.LittleEndian.Uint64(header[16:])
	m := binary.LittleEndian.Uint64(header[24:])
	blobBytes := binary.LittleEndian.Uint64(header[32:])

	vSize := 4
	if flags&flag64Bit != 0 {
		vSize = 8
	}
	if vSize != vertexWidth[V]() {
		return nil, fmt.Errorf("sem: file has %d-byte vertex ids, caller expects %d", vSize, vertexWidth[V]())
	}
	g := &Graph[V]{
		store:      store,
		n:          n,
		m:          m,
		weighted:   flags&flagWeighted != 0,
		compressed: flags&flagCompressed != 0,
		vSize:      vSize,
	}
	if g.compressed != (version == VersionCompressed) {
		return nil, fmt.Errorf("sem: version %d contradicts compressed flag %v", version, g.compressed)
	}
	g.recSize = vSize
	if g.weighted {
		g.recSize += 4
	}
	if n >= 1<<56 || m >= 1<<56 || blobBytes >= 1<<56 {
		return nil, fmt.Errorf("sem: implausible header (n=%d m=%d blob=%d)", n, m, blobBytes)
	}
	indexBase := int64(headerSize)
	if flags&flagSharded != 0 {
		raw := make([]byte, shardMapSize)
		if _, err := io.ReadFull(io.NewSectionReader(store, headerSize, shardMapSize), raw); err != nil {
			return nil, fmt.Errorf("sem: read shard map: %w", err)
		}
		sm, err := parseShardMap(raw)
		if err != nil {
			return nil, err
		}
		g.shard = int(sm.shard)
		g.shards = int(sm.shards)
		g.totalEdges = sm.totalEdges
		if g.totalEdges < m {
			return nil, fmt.Errorf("sem: %w: shard map claims %d total edges, shard alone holds %d",
				ErrShardSpec, g.totalEdges, m)
		}
		indexBase += shardMapSize
	}
	g.edgeBase = indexBase + int64(n+1)*8
	if g.compressed {
		g.edgeBase += int64(n) * 4 // the degree array sits between index and blob
	}

	// Validate the header against the store size before allocating the
	// index: a corrupt vertex count must not drive a huge allocation.
	if szr, ok := store.(interface{ Size() int64 }); ok {
		need := g.edgeBase + int64(m)*int64(g.recSize)
		if g.compressed {
			need = g.edgeBase + int64(blobBytes)
		}
		if szr.Size() < need {
			return nil, fmt.Errorf("sem: store holds %d bytes, header requires %d", szr.Size(), need)
		}
	}

	// The vertex index is the RAM-resident "algorithmic information about
	// the vertices". One sequential read at open time.
	raw := make([]byte, (n+1)*8)
	if _, err := io.ReadFull(io.NewSectionReader(store, indexBase, int64(len(raw))), raw); err != nil {
		return nil, fmt.Errorf("sem: read vertex index: %w", err)
	}
	g.offsets = make([]uint64, n+1)
	for i := range g.offsets {
		g.offsets[i] = binary.LittleEndian.Uint64(raw[i*8:])
	}
	want := m
	if g.compressed {
		want = blobBytes
	}
	if g.offsets[n] != want {
		return nil, fmt.Errorf("sem: corrupt index: offsets[n]=%d, want %d", g.offsets[n], want)
	}
	for i := uint64(0); i < n; i++ {
		if g.offsets[i] > g.offsets[i+1] {
			return nil, fmt.Errorf("sem: corrupt index: offsets decrease at %d", i)
		}
	}
	if g.compressed {
		raw = make([]byte, n*4)
		if _, err := io.ReadFull(io.NewSectionReader(store, indexBase+int64(n+1)*8, int64(len(raw))), raw); err != nil {
			return nil, fmt.Errorf("sem: read degree array: %w", err)
		}
		g.degrees = make([]uint32, n)
		var sum uint64
		for i := range g.degrees {
			deg := binary.LittleEndian.Uint32(raw[i*4:])
			g.degrees[i] = deg
			sum += uint64(deg)
			// Every encoded value is at least one varint byte, so a degree
			// can never exceed its block's byte length. Rejecting here bounds
			// every decode-buffer allocation by the blob size.
			if uint64(deg) > g.offsets[uint64(i)+1]-g.offsets[i] {
				return nil, fmt.Errorf("sem: corrupt degree array: vertex %d claims %d edges in a %d-byte block",
					i, deg, g.offsets[uint64(i)+1]-g.offsets[i])
			}
		}
		if sum != m {
			return nil, fmt.Errorf("sem: corrupt degree array: sum %d, m %d", sum, m)
		}
	}

	// Reverse-adjacency capability: a symmetric graph serves in-edges from
	// the edge region itself; otherwise an in-edge section may follow it.
	g.symmetric = flags&flagSymmetric != 0
	if flags&flagInEdges != 0 {
		if g.symmetric {
			return nil, fmt.Errorf("sem: corrupt header: symmetric and in-edge flags are mutually exclusive")
		}
		if err := g.openInSection(store); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// openInSection reads the RAM-resident indexes of the in-edge section that
// follows the edge region (see flagInEdges for the layout) and validates them
// the same way Open validates the forward index.
func (g *Graph[V]) openInSection(store Store) error {
	inBase := g.edgeBase + g.EdgeBytes()
	raw := make([]byte, (g.n+1)*8)
	if _, err := io.ReadFull(io.NewSectionReader(store, inBase, int64(len(raw))), raw); err != nil {
		return fmt.Errorf("sem: read in-edge index: %w", err)
	}
	g.inOffsets = make([]uint64, g.n+1)
	for i := range g.inOffsets {
		g.inOffsets[i] = binary.LittleEndian.Uint64(raw[i*8:])
	}
	if g.inOffsets[0] != 0 {
		return fmt.Errorf("sem: corrupt in-edge index: offsets start at %d", g.inOffsets[0])
	}
	for i := uint64(0); i < g.n; i++ {
		if g.inOffsets[i] > g.inOffsets[i+1] {
			return fmt.Errorf("sem: corrupt in-edge index: offsets decrease at %d", i)
		}
	}
	g.inEdgeBase = inBase + int64(g.n+1)*8
	if !g.compressed {
		// v1: offsets count bare vertex-id records. A whole (unsharded) file's
		// in-edge count must equal its edge count — every edge has one source.
		if !g.Sharded() && g.inOffsets[g.n] != g.m {
			return fmt.Errorf("sem: corrupt in-edge index: %d in-records, %d edges", g.inOffsets[g.n], g.m)
		}
		if szr, ok := store.(interface{ Size() int64 }); ok {
			if need := g.inEdgeBase + int64(g.inOffsets[g.n])*int64(g.vSize); szr.Size() < need {
				return fmt.Errorf("sem: store holds %d bytes, in-edge section requires %d", szr.Size(), need)
			}
		}
		return nil
	}
	// v2: a degree array sits between the byte-offset index and the in-blob.
	g.inEdgeBase += int64(g.n) * 4
	raw = make([]byte, g.n*4)
	if _, err := io.ReadFull(io.NewSectionReader(store, inBase+int64(g.n+1)*8, int64(len(raw))), raw); err != nil {
		return fmt.Errorf("sem: read in-degree array: %w", err)
	}
	g.inDegrees = make([]uint32, g.n)
	var sum uint64
	for i := range g.inDegrees {
		deg := binary.LittleEndian.Uint32(raw[i*4:])
		g.inDegrees[i] = deg
		sum += uint64(deg)
		// Same bound as the forward degrees: one varint byte per value means a
		// degree can never exceed its block's byte length, which bounds every
		// decode-buffer allocation by the in-blob size.
		if uint64(deg) > g.inOffsets[uint64(i)+1]-g.inOffsets[i] {
			return fmt.Errorf("sem: corrupt in-degree array: vertex %d claims %d in-edges in a %d-byte block",
				i, deg, g.inOffsets[uint64(i)+1]-g.inOffsets[i])
		}
	}
	if !g.Sharded() && sum != g.m {
		return fmt.Errorf("sem: corrupt in-degree array: sum %d, m %d", sum, g.m)
	}
	if szr, ok := store.(interface{ Size() int64 }); ok {
		if need := g.inEdgeBase + int64(g.inOffsets[g.n]); szr.Size() < need {
			return fmt.Errorf("sem: store holds %d bytes, in-edge section requires %d", szr.Size(), need)
		}
	}
	return nil
}

// NumVertices implements graph.Adjacency.
func (g *Graph[V]) NumVertices() uint64 { return g.n }

// NumEdges reports the number of edge records on the store.
func (g *Graph[V]) NumEdges() uint64 { return g.m }

// Weighted reports whether edge records carry weights.
func (g *Graph[V]) Weighted() bool { return g.weighted }

// Compressed reports whether the store holds format v2 compressed blocks.
func (g *Graph[V]) Compressed() bool { return g.compressed }

// Sharded reports whether the file carries a shard map: it holds one shard of
// a hash-partitioned logical graph rather than the whole graph.
func (g *Graph[V]) Sharded() bool { return g.shards > 0 }

// Shard reports this file's shard index within its partition (0 when the file
// is not sharded).
func (g *Graph[V]) Shard() int { return g.shard }

// Shards reports the partition width recorded in the shard map (0 when the
// file is not sharded).
func (g *Graph[V]) Shards() int { return g.shards }

// TotalEdges reports the logical graph's edge count: the shard map's total
// for sharded files, NumEdges otherwise.
func (g *Graph[V]) TotalEdges() uint64 {
	if g.Sharded() {
		return g.totalEdges
	}
	return g.m
}

// Degree implements graph.Adjacency from the RAM-resident index.
func (g *Graph[V]) Degree(v V) int {
	if g.compressed {
		return int(g.degrees[v])
	}
	return int(g.offsets[v+1] - g.offsets[v])
}

// EdgeBytes reports the size of the edge region in bytes, the paper's
// "size on EM device" (excluding the RAM-resident index). For compressed
// graphs this is the blob size — divide by NumEdges for bytes/edge.
func (g *Graph[V]) EdgeBytes() int64 {
	if g.compressed {
		return int64(g.offsets[g.n])
	}
	return int64(g.m) * int64(g.recSize)
}

// extentOf reports the byte range of v's adjacency on the store: the record
// span in v1, the compressed block in v2. n is 0 for isolated vertices.
//
//lint:hotpath
func (g *Graph[V]) extentOf(v V) (off int64, n int) {
	lo, hi := g.offsets[v], g.offsets[v+1]
	if g.compressed {
		return g.edgeBase + int64(lo), int(hi - lo)
	}
	return g.edgeBase + int64(lo)*int64(g.recSize), int(hi-lo) * g.recSize
}

// decodeRecords decodes len(targets) consecutive edge records from block into
// targets and, when non-nil, weights. block must hold at least
// len(targets)*recSize bytes.
//
//lint:hotpath
func (g *Graph[V]) decodeRecords(block []byte, targets []V, weights []graph.Weight) {
	for i := range targets {
		rec := block[i*g.recSize:]
		if g.vSize == 4 {
			targets[i] = V(binary.LittleEndian.Uint32(rec))
		} else {
			targets[i] = V(binary.LittleEndian.Uint64(rec))
		}
		if weights != nil {
			weights[i] = binary.LittleEndian.Uint32(rec[g.vSize:])
		}
	}
}

// decodeInto decodes v's adjacency block (deg edges, raw records or a v2
// compressed block) through the scratch buffers, returning slices valid
// until the next call with the same scratch.
//
//lint:hotpath
func (g *Graph[V]) decodeInto(block []byte, v V, deg int, scratch *graph.Scratch[V]) ([]V, []graph.Weight, error) {
	if cap(scratch.Targets) < deg {
		scratch.Targets = make([]V, deg)
	}
	targets := scratch.Targets[:deg]
	var weights []graph.Weight
	if g.weighted {
		if cap(scratch.Weights) < deg {
			scratch.Weights = make([]graph.Weight, deg)
		}
		weights = scratch.Weights[:deg]
	}
	if g.compressed {
		if _, err := graph.DecodeAdjBlock(block, v, targets, weights); err != nil {
			return nil, nil, err
		}
		return targets, weights, nil
	}
	g.decodeRecords(block, targets, weights)
	return targets, weights, nil
}

// Neighbors implements graph.Adjacency with one positional read per call —
// the semi-external random access the experiments measure. When the worker's
// scratch carries a prefetch session holding an in-flight read for v (see
// NeighborsBatch), the call waits for that read instead of issuing its own,
// and decodes straight out of the coalesced span buffer. The decoded slices
// live in scratch and are valid until the next call.
func (g *Graph[V]) Neighbors(v V, scratch *graph.Scratch[V]) ([]V, []graph.Weight, error) {
	deg := g.Degree(v)
	if deg == 0 {
		return nil, nil, nil
	}
	if sess, ok := scratch.Prefetch.(*prefetchSession); ok {
		if block, err, prefetched := sess.take(uint64(v)); prefetched {
			if err != nil {
				return nil, nil, fmt.Errorf("sem: read adjacency of %d: %w", v, err)
			}
			return g.decodeInto(block, v, deg, scratch)
		}
	}
	off, need := g.extentOf(v)
	if cap(scratch.Block) < need {
		scratch.Block = make([]byte, need)
	}
	block := scratch.Block[:need]
	if _, err := g.store.ReadAt(block, off); err != nil {
		return nil, nil, fmt.Errorf("sem: read adjacency of %d: %w", v, err)
	}
	return g.decodeInto(block, v, deg, scratch)
}

// loadChunkBytes is the sequential read granularity of LoadCSR.
const loadChunkBytes = 1 << 20

// LoadCSR reads an entire semi-external graph back into an in-memory CSR.
// Used for round-trip verification and by tools that want IM processing of a
// stored graph. The edge region is streamed in large sequential chunks — one
// bandwidth-bound read per ~1 MiB instead of one latency-charged random read
// per vertex, which is the difference between seconds and hours on the
// simulated devices.
func LoadCSR[V graph.Vertex](store Store) (*graph.CSR[V], error) {
	g, err := Open[V](store)
	if err != nil {
		return nil, err
	}
	if g.compressed {
		return g.loadCompressed()
	}
	targets := make([]V, g.m)
	var weights []graph.Weight
	if g.weighted {
		weights = make([]graph.Weight, g.m)
	}
	recsPerChunk := uint64(loadChunkBytes / g.recSize)
	if recsPerChunk < 1 {
		recsPerChunk = 1
	}
	buf := make([]byte, recsPerChunk*uint64(g.recSize))
	for rec := uint64(0); rec < g.m; {
		take := recsPerChunk
		if rec+take > g.m {
			take = g.m - rec
		}
		block := buf[:take*uint64(g.recSize)]
		off := g.edgeBase + int64(rec)*int64(g.recSize)
		if _, err := g.store.ReadAt(block, off); err != nil {
			return nil, fmt.Errorf("sem: load edge records at %d: %w", rec, err)
		}
		var ws []graph.Weight
		if weights != nil {
			ws = weights[rec : rec+take]
		}
		g.decodeRecords(block, targets[rec:rec+take], ws)
		rec += take
	}
	offsets := make([]uint64, len(g.offsets))
	copy(offsets, g.offsets)
	return graph.NewCSRRaw(offsets, targets, weights)
}

// loadCompressed streams a v2 blob back into an in-memory CSR: vertices are
// grouped into ~loadChunkBytes byte ranges (one bandwidth-bound sequential
// read each) and their blocks decoded straight into the final edge arrays.
func (g *Graph[V]) loadCompressed() (*graph.CSR[V], error) {
	edgeOffsets := make([]uint64, g.n+1)
	for v := uint64(0); v < g.n; v++ {
		edgeOffsets[v+1] = edgeOffsets[v] + uint64(g.degrees[v])
	}
	targets := make([]V, g.m)
	var weights []graph.Weight
	if g.weighted {
		weights = make([]graph.Weight, g.m)
	}
	var buf []byte
	for v := uint64(0); v < g.n; {
		// Extend the chunk vertex by vertex until it holds ~loadChunkBytes of
		// blob (always at least one vertex, however large its block).
		end := v + 1
		for end < g.n && g.offsets[end+1]-g.offsets[v] <= loadChunkBytes {
			end++
		}
		lo, hi := g.offsets[v], g.offsets[end]
		if need := int(hi - lo); cap(buf) < need {
			buf = make([]byte, need)
		}
		block := buf[:hi-lo]
		if len(block) > 0 {
			if _, err := g.store.ReadAt(block, g.edgeBase+int64(lo)); err != nil {
				return nil, fmt.Errorf("sem: load blocks at vertex %d: %w", v, err)
			}
		}
		for ; v < end; v++ {
			elo, ehi := edgeOffsets[v], edgeOffsets[v+1]
			if elo == ehi {
				continue
			}
			var ws []graph.Weight
			if weights != nil {
				ws = weights[elo:ehi]
			}
			vb := block[g.offsets[v]-lo : g.offsets[v+1]-lo]
			if _, err := graph.DecodeAdjBlock(vb, V(v), targets[elo:ehi], ws); err != nil {
				return nil, fmt.Errorf("sem: decode block of vertex %d: %w", v, err)
			}
		}
	}
	return graph.NewCSRRaw(edgeOffsets, targets, weights)
}

// LoadCompressedCSR reads an entire v2 graph back into an in-memory
// CompressedCSR: the index, degrees, and blob move to RAM but the edges stay
// delta+varint encoded — the IM footprint win of the compressed format
// without a decode pass. Fails on v1 stores (use LoadCSR).
func LoadCompressedCSR[V graph.Vertex](store Store) (*graph.CompressedCSR[V], error) {
	g, err := Open[V](store)
	if err != nil {
		return nil, err
	}
	if !g.compressed {
		return nil, fmt.Errorf("sem: store holds a raw v1 graph, not compressed blocks")
	}
	blob := make([]byte, g.offsets[g.n])
	for off := 0; off < len(blob); off += loadChunkBytes {
		end := off + loadChunkBytes
		if end > len(blob) {
			end = len(blob)
		}
		if _, err := g.store.ReadAt(blob[off:end], g.edgeBase+int64(off)); err != nil {
			return nil, fmt.Errorf("sem: load blob at %d: %w", off, err)
		}
	}
	offsets := make([]uint64, len(g.offsets))
	copy(offsets, g.offsets)
	degrees := make([]uint32, len(g.degrees))
	copy(degrees, g.degrees)
	return graph.NewCompressedCSRRaw[V](offsets, degrees, blob, g.weighted)
}
