// Package extsort builds semi-external graph files from edge streams that do
// not fit in memory — the preprocessing step behind the paper's inputs
// (billions of edges: uk-union has 5.5B, ClueWeb09 7.9B). Edges are
// accumulated in a bounded in-memory buffer, spilled as sorted runs to
// temporary files, and k-way merged twice: a first pass computes de-duplicated
// per-vertex degrees (the vertex index fits in memory, per the semi-external
// model), a second streams the edge records into the sem file format.
package extsort

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/graph"
	"repro/internal/pq"
	"repro/internal/sem"
)

const recordSize = 12 // src, dst, weight: 3 x uint32

// Builder accumulates edges and writes a semi-external CSR file. It is not
// safe for concurrent use.
type Builder struct {
	n        uint64
	weighted bool
	budget   int    // max in-memory edges before spilling
	tmpDir   string // where sorted runs are spilled

	buf    []graph.Edge[uint32]
	spills []*os.File
	closed bool
	// directed and undirected record which of Add and AddUndirected fed the
	// builder: fed through AddUndirected alone it holds its own transpose,
	// and WriteTo sets the file's symmetric flag.
	directed, undirected bool
}

// NewBuilder creates an out-of-core builder for a graph with n vertices.
// memBudgetEdges bounds the in-memory edge buffer (minimum 1024); sorted
// runs beyond it spill to tmpDir (""=os.TempDir()).
func NewBuilder(n uint64, weighted bool, memBudgetEdges int, tmpDir string) *Builder {
	if memBudgetEdges < 1024 {
		memBudgetEdges = 1024
	}
	return &Builder{n: n, weighted: weighted, budget: memBudgetEdges, tmpDir: tmpDir}
}

// Add appends one directed edge, spilling a sorted run if the memory budget
// is reached.
func (b *Builder) Add(src, dst uint32, w graph.Weight) error {
	b.directed = true
	return b.add(src, dst, w)
}

// AddUndirected appends u->v with weight w and, unless u == v, v->u with
// weight wRev.
func (b *Builder) AddUndirected(u, v uint32, w, wRev graph.Weight) error {
	b.undirected = true
	if err := b.add(u, v, w); err != nil || u == v {
		return err
	}
	return b.add(v, u, wRev)
}

func (b *Builder) add(src, dst uint32, w graph.Weight) error {
	if b.closed {
		return fmt.Errorf("extsort: builder already finished")
	}
	if uint64(src) >= b.n || uint64(dst) >= b.n {
		return fmt.Errorf("extsort: edge (%d,%d) out of range for %d vertices", src, dst, b.n)
	}
	b.buf = append(b.buf, graph.Edge[uint32]{Src: src, Dst: dst, W: w})
	if len(b.buf) >= b.budget {
		return b.spill()
	}
	return nil
}

func (b *Builder) sortBuf() {
	sort.Slice(b.buf, func(i, j int) bool {
		a, c := b.buf[i], b.buf[j]
		if a.Src != c.Src {
			return a.Src < c.Src
		}
		if a.Dst != c.Dst {
			return a.Dst < c.Dst
		}
		return a.W < c.W
	})
}

func (b *Builder) spill() error {
	if len(b.buf) == 0 {
		return nil
	}
	b.sortBuf()
	f, err := os.CreateTemp(b.tmpDir, "extsort-run-*.bin")
	if err != nil {
		return fmt.Errorf("extsort: create spill: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var rec [recordSize]byte
	for _, e := range b.buf {
		binary.LittleEndian.PutUint32(rec[0:], e.Src)
		binary.LittleEndian.PutUint32(rec[4:], e.Dst)
		binary.LittleEndian.PutUint32(rec[8:], e.W)
		if _, err := w.Write(rec[:]); err != nil {
			_ = f.Close()
			return fmt.Errorf("extsort: write spill: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("extsort: flush spill: %w", err)
	}
	b.spills = append(b.spills, f)
	b.buf = b.buf[:0]
	return nil
}

// Cleanup removes all spill files. Safe to call multiple times; WriteTo calls
// it on success.
func (b *Builder) Cleanup() {
	for _, f := range b.spills {
		name := f.Name()
		_ = f.Close()
		_ = os.Remove(name)
	}
	b.spills = nil
}

// runReader streams records from one sorted source (a spill file or the
// final in-memory buffer).
type runReader struct {
	r    *bufio.Reader // nil for the in-memory run
	mem  []graph.Edge[uint32]
	pos  int
	cur  graph.Edge[uint32]
	done bool
}

func (rr *runReader) advance() error {
	if rr.r == nil {
		if rr.pos >= len(rr.mem) {
			rr.done = true
			return nil
		}
		rr.cur = rr.mem[rr.pos]
		rr.pos++
		return nil
	}
	var rec [recordSize]byte
	if _, err := io.ReadFull(rr.r, rec[:]); err != nil {
		if err == io.EOF {
			rr.done = true
			return nil
		}
		return fmt.Errorf("extsort: read spill: %w", err)
	}
	rr.cur = graph.Edge[uint32]{
		Src: binary.LittleEndian.Uint32(rec[0:]),
		Dst: binary.LittleEndian.Uint32(rec[4:]),
		W:   binary.LittleEndian.Uint32(rec[8:]),
	}
	return nil
}

// merge streams the global sorted, de-duplicated edge sequence across all
// runs, invoking emit for each unique (src, dst) with its minimum weight.
func (b *Builder) merge(emit func(e graph.Edge[uint32]) error) error {
	readers := make([]*runReader, 0, len(b.spills)+1)
	for _, f := range b.spills {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return fmt.Errorf("extsort: rewind spill: %w", err)
		}
		readers = append(readers, &runReader{r: bufio.NewReaderSize(f, 1<<20)})
	}
	readers = append(readers, &runReader{mem: b.buf})

	// Key the merge heap on (src, dst) packed into Pri and weight in Aux;
	// the reader index rides in V.
	h := pq.New(false)
	for i, rr := range readers {
		if err := rr.advance(); err != nil {
			return err
		}
		if !rr.done {
			h.Push(pq.Item{Pri: pack(rr.cur), V: uint64(i), Aux: uint64(rr.cur.W)})
		}
	}
	havePrev := false
	var prev graph.Edge[uint32]
	for {
		it, ok := h.Pop()
		if !ok {
			break
		}
		rr := readers[it.V]
		e := rr.cur
		if err := rr.advance(); err != nil {
			return err
		}
		if !rr.done {
			h.Push(pq.Item{Pri: pack(rr.cur), V: it.V, Aux: uint64(rr.cur.W)})
		}
		if havePrev && prev.Src == e.Src && prev.Dst == e.Dst {
			// Duplicate (src,dst). Equal keys can arrive from different runs
			// in any weight order (the heap breaks ties arbitrarily), so
			// keep the minimum weight — matching graph.Builder's dedup rule.
			if e.W < prev.W {
				prev.W = e.W
			}
			continue
		}
		if havePrev {
			if err := emit(prev); err != nil {
				return err
			}
		}
		prev, havePrev = e, true
	}
	if havePrev {
		return emit(prev)
	}
	return nil
}

func pack(e graph.Edge[uint32]) uint64 { return uint64(e.Src)<<32 | uint64(e.Dst) }

// WriteTo finishes the build: it merges all runs twice — once to compute the
// de-duplicated vertex index, once to stream edge records through sem's
// encoder — and writes a complete semi-external graph file to f, from its
// start. On success the spill files are removed and the builder cannot be
// reused.
func (b *Builder) WriteTo(f io.WriteSeeker) (edges uint64, err error) {
	if b.closed {
		return 0, fmt.Errorf("extsort: builder already finished")
	}
	b.closed = true
	defer b.Cleanup()
	b.sortBuf() // the final in-memory run participates in the merge

	// Pass 1: de-duplicated degrees -> offsets (RAM-resident, 8(n+1) bytes:
	// the semi-external vertex budget).
	offsets := make([]uint64, b.n+1)
	err = b.merge(func(e graph.Edge[uint32]) error {
		offsets[e.Src+1]++
		return nil
	})
	if err != nil {
		return 0, err
	}
	for i := uint64(0); i < b.n; i++ {
		offsets[i+1] += offsets[i]
	}

	// Pass 2: stream the records behind the header and index.
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, fmt.Errorf("extsort: seek: %w", err)
	}
	err = sem.WriteStream(f, offsets, b.weighted, b.undirected && !b.directed, func(emit func(uint32, graph.Weight) error) error {
		return b.merge(func(e graph.Edge[uint32]) error { return emit(e.Dst, e.W) })
	})
	if err != nil {
		return 0, fmt.Errorf("extsort: write: %w", err)
	}
	return offsets[b.n], nil
}
