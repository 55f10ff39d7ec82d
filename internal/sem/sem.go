// Package sem implements the paper's semi-external memory graph storage
// (§IV-C): "enough memory to store algorithmic information about the
// vertices but not edges". The vertex index array lives in RAM; the edge
// records stay on the storage device and every adjacency access is an
// explicit random read, issued concurrently by the traversal workers so the
// device's internal parallelism is exercised.
//
// A file is a 40-byte header (magic "ASG1", version, flags, n, m, v2 blob
// size), an optional 24-byte shard map (see sharded.go), and one or two
// adjacency sections of one layout (see section): the forward edge region
// and, under flagInEdges, the reverse-adjacency section behind it. Format v1
// sections hold raw fixed-width records:
//
//	offsets: (n+1) x uint64        -- record counts, loaded into RAM at open
//	records: offsets[n] x record   -- fetched per-visit with ReadAt
//
// A record is the neighbor's vertex id (4 or 8 bytes per the vertex width
// flag) followed, in a weighted forward section, by a uint32 weight. Format
// v2 sections hold delta+varint compressed per-vertex blocks
// (graph.AppendAdjBlock) behind a block-extent index:
//
//	offsets: (n+1) x uint64        -- BYTE offsets of each block in the blob
//	degrees: n x uint32            -- neighbor counts (blocks are self-delimiting
//	                                  in bytes via the index, not in edges)
//	blob:    concatenated blocks   -- fetched per-visit with ReadAt
//
// The offsets and degrees are the RAM-resident vertex information; the
// records or blob are what the traversal reads from flash, the blob typically
// 2-4x smaller than the v1 records. All integers are little-endian.
package sem

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/graph"
)

// magic identifies the graph file format ("ASG1": Async Semi-external Graph).
const magic = 0x31475341

// Format versions: v1 stores raw fixed-width edge records, v2 stores
// delta+varint compressed adjacency blocks behind a block-extent index.
// Open accepts both; Write emits v1, or v2 under WriteConfig.Compress.
const (
	version           = 1
	versionCompressed = 2
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
	// flagInEdges marks a file carrying a second adjacency section after the
	// edge region: the transpose, the storage behind bottom-up traversal
	// phases. It mirrors the file's own format version and never stores
	// weights (v1 records are bare source ids, v2 blocks have no weight stream):
	// the only consumer is the bottom-up BFS step, which needs edge sources, not
	// costs.
	flagInEdges = 1 << 4
	// flagSymmetric says the out-adjacency is its own transpose — the writer
	// was handed a CSR marked symmetric (graph.CSR.Symmetric) — so in-edge
	// reads are served from the edge region itself and no in-edge section
	// exists. Mutually exclusive with flagInEdges.
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
	// store is what Open was handed; the open and load paths read it
	// directly. Every adjacency read goes through table, the store itself
	// when it is a CachedStore and a zero-budget table over it otherwise.
	store Store
	table *CachedStore
	n, m  uint64

	// out is the forward edge region. in is the reverse adjacency: the in-edge
	// section of a flagInEdges file, &out for a symmetric file (the edge region
	// is its own transpose), nil for files without reverse capability.
	out       section[V]
	in        *section[V]
	symmetric bool

	// Shard-map fields (zero values for plain files): this file holds shard
	// `shard` of a `shards`-way partition whose logical graph has totalEdges
	// edges; m counts only this shard's records.
	shard      int
	shards     int
	totalEdges uint64

	// prefetch, when non-nil, turns NeighborsBatch windows into asynchronous
	// block requests on the table (see prefetch.go). Nil means NeighborsBatch
	// is a no-op and every Neighbors call reads synchronously.
	prefetch *Prefetcher

	// cache, set by EnableStateCache when the store is a CachedStore,
	// receives the engine's settle notifications mapped to block ids (see
	// state.go). Nil means nobody feeds the cache.
	cache *CachedStore
}

// section is one adjacency section of a file: a RAM-resident index over
// neighbor bytes on the store. The forward edge region and the in-edge
// section are two instances of it, opened, validated, read, decoded and
// written by the same code.
type section[V graph.Vertex] struct {
	// base is the byte offset of the first record (v2: of the blob).
	base int64
	// offsets has n+1 entries. In format v1 they count records; in v2 they are
	// byte offsets of the compressed blocks within the blob, and degrees
	// carries the neighbor counts the byte extents cannot express.
	offsets    []uint64
	degrees    []uint32 // v2 only
	recSize    int      // v1 record bytes: the vertex id width, plus 4 when weighted
	weighted   bool
	compressed bool
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
func writeHeader(w io.Writer, ver uint32, flags, n, m, blobBytes uint64, sm *shardMap) error {
	if sm != nil {
		flags |= flagSharded
	}
	header := make([]byte, headerSize)
	binary.LittleEndian.PutUint32(header[0:], magic)
	binary.LittleEndian.PutUint32(header[4:], ver)
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
	// Symmetric demands flagSymmetric: Write fails unless g is marked
	// symmetric. The flag itself needs no asking for — a marked graph is
	// written with it whenever InEdges is not set.
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
	if cfg.Symmetric && !g.Symmetric() {
		return fmt.Errorf("sem: Symmetric asked for a graph that is not marked symmetric (build it through Builder.Symmetrize)")
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
	flags := recordFlags[V](sub.Weighted(), g.Symmetric() && in == nil)
	if in != nil {
		flags |= flagInEdges
	}
	n, m := sub.NumVertices(), sub.NumEdges()
	if !cfg.Compress {
		if err := writeHeader(w, version, flags, n, m, 0, sm); err != nil {
			return err
		}
		if err := writeSection(w, "edge", sub.Offsets(), nil, nil, sub.Targets(), sub.WeightsRaw()); err != nil {
			return err
		}
		if in == nil {
			return nil
		}
		return writeSection(w, "in-edge", in.Offsets(), nil, nil, in.Targets(), nil)
	}
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
	if err := writeHeader(w, versionCompressed, flags|flagCompressed, n, m, uint64(len(c.Blob())), sm); err != nil {
		return err
	}
	if err := writeSection[V](w, "edge", c.BlockOffsets(), c.Degrees(), c.Blob(), nil, nil); err != nil {
		return err
	}
	if inC == nil {
		return nil
	}
	return writeSection[V](w, "in-edge", inC.BlockOffsets(), inC.Degrees(), inC.Blob(), nil, nil)
}

// recordFlags is the header's description of the edge region: whether a
// record carries a weight, the vertex id width, and whether the region is its
// own transpose.
func recordFlags[V graph.Vertex](weighted, symmetric bool) uint64 {
	var flags uint64
	if weighted {
		flags |= flagWeighted
	}
	if symmetric {
		flags |= flagSymmetric
	}
	if vertexWidth[V]() == 8 {
		flags |= flag64Bit
	}
	return flags
}

// WriteStream serializes a format v1 file whose edge records come from a
// source too large to hold as a graph.CSR (the out-of-core build): offsets is
// the (n+1)-entry record index, and records is called once with the function
// that appends the next record, which it must call offsets[n] times in CSR
// order. symmetric says the stream is its own transpose (the source added
// every edge in both directions) and sets the header flag a marked CSR gets.
// The bytes are those Write emits for the same graph.
func WriteStream[V graph.Vertex](w io.Writer, offsets []uint64, weighted, symmetric bool, records func(emit func(dst V, wt graph.Weight) error) error) error {
	if len(offsets) == 0 {
		return fmt.Errorf("sem: empty vertex index (want n+1 offsets)")
	}
	n, m := uint64(len(offsets)-1), offsets[len(offsets)-1]
	if err := writeHeader(w, version, recordFlags[V](weighted, symmetric), n, m, 0, nil); err != nil {
		return err
	}
	sw := sectionWriter[V]{w: w, what: "edge", buf: make([]byte, 0, sectionBuf)}
	if err := sw.index(offsets, nil); err != nil {
		return err
	}
	// One record at a time through the array encoder: the k-way merge that
	// produces each record costs far more than the call.
	var t [1]V
	var wt [1]graph.Weight
	weights := wt[:]
	if !weighted {
		weights = nil
	}
	var emitted uint64
	err := records(func(dst V, w graph.Weight) error {
		emitted++
		t[0], wt[0] = dst, w
		return sw.records(t[:], weights)
	})
	if err != nil {
		return err
	}
	if emitted != m {
		return fmt.Errorf("sem: %d records streamed, the index counts %d", emitted, m)
	}
	return sw.flush()
}

// sectionBuf is the write granularity of a section's index and records.
const sectionBuf = 1 << 16

// sectionWriter is the one encoder of an adjacency section's index and v1
// records, buffered: Write hands it whole arrays, WriteStream one record at a
// time.
type sectionWriter[V graph.Vertex] struct {
	w    io.Writer
	what string
	buf  []byte
}

// flush hands what is buffered to w.
func (s *sectionWriter[V]) flush() error {
	if len(s.buf) == 0 {
		return nil
	}
	_, err := s.w.Write(s.buf)
	s.buf = s.buf[:0]
	if err != nil {
		return fmt.Errorf("sem: write %s section: %w", s.what, err)
	}
	return nil
}

// index emits the (n+1)-entry index and, for v2, the degree array.
func (s *sectionWriter[V]) index(offsets []uint64, degrees []uint32) error {
	for _, off := range offsets {
		s.buf = binary.LittleEndian.AppendUint64(s.buf, off)
		if len(s.buf) >= sectionBuf-16 {
			if err := s.flush(); err != nil {
				return err
			}
		}
	}
	for _, deg := range degrees {
		s.buf = binary.LittleEndian.AppendUint32(s.buf, deg)
		if len(s.buf) >= sectionBuf-16 {
			if err := s.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// records emits one v1 record per target: the neighbor id, then its weight
// when weights is non-nil.
func (s *sectionWriter[V]) records(targets []V, weights []graph.Weight) error {
	wide := vertexWidth[V]() == 8
	buf := s.buf
	for i, t := range targets {
		if wide {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(t))
		} else {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(t))
		}
		if weights != nil {
			buf = binary.LittleEndian.AppendUint32(buf, weights[i])
		}
		if len(buf) >= sectionBuf-16 {
			s.buf = buf
			if err := s.flush(); err != nil {
				return err
			}
			buf = s.buf
		}
	}
	s.buf = buf
	return nil
}

// writeSection emits one adjacency section: the (n+1)-entry index, then the
// v2 degree array and block blob, or one v1 record per target (with its
// weight when weights is non-nil). A file's edge region and in-edge section
// are two calls.
func writeSection[V graph.Vertex](w io.Writer, what string, offsets []uint64, degrees []uint32, blob []byte, targets []V, weights []graph.Weight) error {
	sw := sectionWriter[V]{w: w, what: what, buf: make([]byte, 0, sectionBuf)}
	if err := sw.index(offsets, degrees); err != nil {
		return err
	}
	if err := sw.records(targets, weights); err != nil {
		return err
	}
	if err := sw.flush(); err != nil {
		return err
	}
	if len(blob) > 0 {
		if _, err := w.Write(blob); err != nil {
			return fmt.Errorf("sem: write %s blocks: %w", what, err)
		}
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
	if m := binary.LittleEndian.Uint32(header[0:]); m != magic {
		return nil, fmt.Errorf("sem: bad magic %#x", m)
	}
	ver := binary.LittleEndian.Uint32(header[4:])
	if ver != version && ver != versionCompressed {
		return nil, fmt.Errorf("sem: unsupported version %d", ver)
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
	g := &Graph[V]{store: store, n: n, m: m, symmetric: flags&flagSymmetric != 0}
	g.out = section[V]{
		recSize:    vSize,
		weighted:   flags&flagWeighted != 0,
		compressed: flags&flagCompressed != 0,
	}
	if g.out.weighted {
		g.out.recSize += 4
	}
	if g.out.compressed != (ver == versionCompressed) {
		return nil, fmt.Errorf("sem: version %d contradicts compressed flag %v", ver, g.out.compressed)
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

	edges, err := g.out.open(store, "edge", indexBase, n)
	if err != nil {
		return nil, err
	}
	if edges != m {
		return nil, fmt.Errorf("sem: corrupt edge index: %d edges indexed, header says %d", edges, m)
	}
	if g.out.compressed && g.out.offsets[n] != blobBytes {
		return nil, fmt.Errorf("sem: corrupt edge index: offsets[n]=%d, header says a %d-byte blob", g.out.offsets[n], blobBytes)
	}

	// Reverse-adjacency capability: a symmetric graph serves in-edges from
	// the edge region itself; otherwise an in-edge section may follow it.
	switch {
	case g.symmetric && flags&flagInEdges != 0:
		return nil, fmt.Errorf("sem: corrupt header: symmetric and in-edge flags are mutually exclusive")
	case g.symmetric:
		g.in = &g.out
	case flags&flagInEdges != 0:
		in := &section[V]{recSize: vSize, compressed: g.out.compressed}
		edges, err := in.open(store, "in-edge", g.out.base+g.out.bytes(), n)
		if err != nil {
			return nil, err
		}
		// A whole file's in-edge count must equal its edge count — every edge
		// has one source. A shard is exempt: its in-edge section holds the
		// in-adjacency of the vertices it owns, a different edge set from its
		// own out-edges.
		if !g.Sharded() && edges != m {
			return nil, fmt.Errorf("sem: corrupt in-edge index: %d in-edges indexed, header says %d edges", edges, m)
		}
		g.in = in
	}
	// A zero-budget table keeps nothing; it is where readers of one block
	// share its read, and its fetch is where the graph meets the device.
	if g.table, _ = store.(*CachedStore); g.table == nil {
		end := g.out.base + g.out.bytes()
		if g.in != nil {
			end = max(end, g.in.base+g.in.bytes())
		}
		g.table = newCachedStore(store, rawBlock, 0, end, 1)
	}
	return g, nil
}

// open reads the section's index (and v2 degree array) from indexBase and
// validates it — the one place a section index is checked: offsets start at 0,
// never decrease, and end inside the store, and a v2 degree never exceeds its
// block's byte length. It returns the number of edges the section indexes;
// comparing that against the header is the caller's business, because only
// the caller knows whether the section must hold every edge (a shard's
// in-edge section does not).
func (s *section[V]) open(store Store, what string, indexBase int64, n uint64) (edges uint64, err error) {
	s.base = indexBase + int64(n+1)*8
	unit := uint64(s.recSize)
	if s.compressed {
		s.base += int64(n) * 4 // the degree array sits between index and blob
		unit = 1
	}
	// limit bounds offsets[n], and with it every extent length: by what the
	// store can hold when it reports its size — a division, never a product
	// that a corrupt count could wrap — and by the header's plausibility cap
	// otherwise. Checked before allocating the index: a corrupt vertex count
	// must not drive a huge allocation.
	limit := uint64(1) << 56
	if szr, ok := store.(Sizer); ok {
		if szr.Size() < s.base {
			return 0, fmt.Errorf("sem: store holds %d bytes, %s index ends at %d", szr.Size(), what, s.base)
		}
		limit = uint64(szr.Size()-s.base) / unit
	}

	// The index is the RAM-resident "algorithmic information about the
	// vertices". One sequential read at open time.
	raw := make([]byte, (n+1)*8)
	if _, err := io.ReadFull(io.NewSectionReader(store, indexBase, int64(len(raw))), raw); err != nil {
		return 0, fmt.Errorf("sem: read %s index: %w", what, err)
	}
	s.offsets = make([]uint64, n+1)
	for i := range s.offsets {
		s.offsets[i] = binary.LittleEndian.Uint64(raw[i*8:])
	}
	if s.offsets[0] != 0 {
		return 0, fmt.Errorf("sem: corrupt %s index: offsets start at %d", what, s.offsets[0])
	}
	for i := uint64(0); i < n; i++ {
		if s.offsets[i] > s.offsets[i+1] {
			return 0, fmt.Errorf("sem: corrupt %s index: offsets decrease at %d", what, i)
		}
	}
	if s.offsets[n] > limit {
		return 0, fmt.Errorf("sem: corrupt %s index: offsets[n]=%d, the store has room for %d", what, s.offsets[n], limit)
	}
	if !s.compressed {
		return s.offsets[n], nil
	}

	raw = make([]byte, n*4)
	if _, err := io.ReadFull(io.NewSectionReader(store, indexBase+int64(n+1)*8, int64(len(raw))), raw); err != nil {
		return 0, fmt.Errorf("sem: read %s degree array: %w", what, err)
	}
	s.degrees = make([]uint32, n)
	for i := range s.degrees {
		deg := binary.LittleEndian.Uint32(raw[i*4:])
		s.degrees[i] = deg
		edges += uint64(deg)
		// Every encoded value is at least one varint byte, so a degree can
		// never exceed its block's byte length. Rejecting here bounds every
		// decode-buffer allocation by the blob size.
		if size := s.offsets[i+1] - s.offsets[i]; uint64(deg) > size {
			return 0, fmt.Errorf("sem: corrupt %s degree array: vertex %d claims %d edges in a %d-byte block", what, i, deg, size)
		}
	}
	return edges, nil
}

// NumVertices implements graph.Adjacency.
func (g *Graph[V]) NumVertices() uint64 { return g.n }

// NumEdges reports the number of edge records on the store.
func (g *Graph[V]) NumEdges() uint64 { return g.m }

// Weighted reports whether edge records carry weights.
func (g *Graph[V]) Weighted() bool { return g.out.weighted }

// Compressed reports whether the store holds format v2 compressed blocks.
func (g *Graph[V]) Compressed() bool { return g.out.compressed }

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
func (g *Graph[V]) Degree(v V) int { return g.out.degree(v) }

// EdgeBytes reports the size of the edge region in bytes, the paper's
// "size on EM device" (excluding the RAM-resident index). For compressed
// graphs this is the blob size — divide by NumEdges for bytes/edge.
func (g *Graph[V]) EdgeBytes() int64 { return g.out.bytes() }

// bytes reports the size of the section's records or blob on the store.
func (s *section[V]) bytes() int64 {
	if s.compressed {
		return int64(s.offsets[len(s.offsets)-1])
	}
	return int64(s.offsets[len(s.offsets)-1]) * int64(s.recSize)
}

// degree reports v's neighbor count from the RAM-resident index.
//
//lint:hotpath
func (s *section[V]) degree(v V) int {
	if s.compressed {
		return int(s.degrees[v])
	}
	return int(s.offsets[v+1] - s.offsets[v])
}

// extent reports the byte range of v's adjacency on the store: the record
// span in v1, the compressed block in v2. n is 0 for isolated vertices.
//
//lint:hotpath
func (s *section[V]) extent(v V) (off int64, n int) {
	lo, hi := s.offsets[v], s.offsets[v+1]
	if s.compressed {
		return s.base + int64(lo), int(hi - lo)
	}
	return s.base + int64(lo)*int64(s.recSize), int(hi-lo) * s.recSize
}

// decodeRecords decodes len(targets) consecutive v1 records from block into
// targets and, when non-nil, weights. block must hold at least
// len(targets)*recSize bytes.
//
//lint:hotpath
func (s *section[V]) decodeRecords(block []byte, targets []V, weights []graph.Weight) {
	vSize := vertexWidth[V]()
	for i := range targets {
		rec := block[i*s.recSize:]
		if vSize == 4 {
			targets[i] = V(binary.LittleEndian.Uint32(rec))
		} else {
			targets[i] = V(binary.LittleEndian.Uint64(rec))
		}
		if weights != nil {
			weights[i] = binary.LittleEndian.Uint32(rec[vSize:])
		}
	}
}

// decode decodes v's adjacency (raw records or a v2 compressed block, as
// delimited by extent) through the scratch buffers, returning slices valid
// until the next call with the same scratch. weights is nil for an
// unweighted section.
//
//lint:hotpath
func (s *section[V]) decode(block []byte, v V, scratch *graph.Scratch[V]) ([]V, []graph.Weight, error) {
	deg := s.degree(v)
	if cap(scratch.Targets) < deg {
		scratch.Targets = make([]V, deg)
	}
	targets := scratch.Targets[:deg]
	var weights []graph.Weight
	if s.weighted {
		if cap(scratch.Weights) < deg {
			scratch.Weights = make([]graph.Weight, deg)
		}
		weights = scratch.Weights[:deg]
	}
	if s.compressed {
		if _, err := graph.DecodeAdjBlock(block, v, targets, weights); err != nil {
			return nil, nil, err
		}
		return targets, weights, nil
	}
	s.decodeRecords(block, targets, weights)
	return targets, weights, nil
}

// Neighbors implements graph.Adjacency with one read through the table per
// call — the semi-external random access the experiments measure. When the
// worker's scratch carries a prefetch session holding v's window entries (see
// NeighborsBatch), the call waits for their reads instead of issuing its own
// and decodes straight out of the fetched bytes. The decoded slices live in
// scratch and are valid until the next call.
func (g *Graph[V]) Neighbors(v V, scratch *graph.Scratch[V]) ([]V, []graph.Weight, error) {
	return g.neighbors(&g.out, v, scratch)
}

// neighbors is the one read-extent-and-decode routine behind Neighbors and
// InNeighbors. Pop-window ranges cover edge-region extents, so only reads of
// that section (a symmetric file's in-reads included) consult the prefetch
// session.
func (g *Graph[V]) neighbors(s *section[V], v V, scratch *graph.Scratch[V]) ([]V, []graph.Weight, error) {
	if s.degree(v) == 0 {
		return nil, nil, nil
	}
	var block []byte
	var err error
	taken := false
	if sess, ok := scratch.Prefetch.(*prefetchSession); ok && s == &g.out {
		block, err, taken = sess.take(uint64(v), g.table.blockSize, &scratch.Block)
	}
	if !taken {
		off, n := s.extent(v)
		block, err = g.table.read(off, n, &scratch.Block, g.prefetch != nil)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("sem: read adjacency of %d: %w", v, err)
	}
	return s.decode(block, v, scratch)
}

// loadChunkBytes is the sequential read granularity of LoadCSR.
const loadChunkBytes = 1 << 20

// LoadCSR reads an entire semi-external graph back into an in-memory CSR,
// marked symmetric when the file's header says it is its own transpose (one
// shard of a symmetric graph is not: LoadShardedCSR marks the merged graph).
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
	if g.out.compressed {
		return g.loadCompressed()
	}
	targets := make([]V, g.m)
	var weights []graph.Weight
	if g.out.weighted {
		weights = make([]graph.Weight, g.m)
	}
	recsPerChunk := uint64(loadChunkBytes / g.out.recSize)
	if recsPerChunk < 1 {
		recsPerChunk = 1
	}
	buf := make([]byte, recsPerChunk*uint64(g.out.recSize))
	for rec := uint64(0); rec < g.m; {
		take := recsPerChunk
		if rec+take > g.m {
			take = g.m - rec
		}
		block := buf[:take*uint64(g.out.recSize)]
		off := g.out.base + int64(rec)*int64(g.out.recSize)
		if _, err := g.store.ReadAt(block, off); err != nil {
			return nil, fmt.Errorf("sem: load edge records at %d: %w", rec, err)
		}
		var ws []graph.Weight
		if weights != nil {
			ws = weights[rec : rec+take]
		}
		g.out.decodeRecords(block, targets[rec:rec+take], ws)
		rec += take
	}
	offsets := make([]uint64, len(g.out.offsets))
	copy(offsets, g.out.offsets)
	return graph.NewLoadedCSR(g.symmetric && !g.Sharded(), offsets, targets, weights)
}

// loadCompressed streams a v2 blob back into an in-memory CSR: vertices are
// grouped into ~loadChunkBytes byte ranges (one bandwidth-bound sequential
// read each) and their blocks decoded straight into the final edge arrays.
func (g *Graph[V]) loadCompressed() (*graph.CSR[V], error) {
	edgeOffsets := make([]uint64, g.n+1)
	for v := uint64(0); v < g.n; v++ {
		edgeOffsets[v+1] = edgeOffsets[v] + uint64(g.out.degrees[v])
	}
	targets := make([]V, g.m)
	var weights []graph.Weight
	if g.out.weighted {
		weights = make([]graph.Weight, g.m)
	}
	var buf []byte
	for v := uint64(0); v < g.n; {
		// Extend the chunk vertex by vertex until it holds ~loadChunkBytes of
		// blob (always at least one vertex, however large its block).
		end := v + 1
		for end < g.n && g.out.offsets[end+1]-g.out.offsets[v] <= loadChunkBytes {
			end++
		}
		lo, hi := g.out.offsets[v], g.out.offsets[end]
		if need := int(hi - lo); cap(buf) < need {
			buf = make([]byte, need)
		}
		block := buf[:hi-lo]
		if len(block) > 0 {
			if _, err := g.store.ReadAt(block, g.out.base+int64(lo)); err != nil {
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
			vb := block[g.out.offsets[v]-lo : g.out.offsets[v+1]-lo]
			if _, err := graph.DecodeAdjBlock(vb, V(v), targets[elo:ehi], ws); err != nil {
				return nil, fmt.Errorf("sem: decode block of vertex %d: %w", v, err)
			}
		}
	}
	return graph.NewLoadedCSR(g.symmetric && !g.Sharded(), edgeOffsets, targets, weights)
}
