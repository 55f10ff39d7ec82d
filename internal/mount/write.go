package mount

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/graph"
	"repro/internal/sem"
	"repro/internal/ssd"
)

// WriteOptions selects the on-flash form of the files a mount reads: the
// write-side counterpart of Options.
type WriteOptions struct {
	// Compress writes delta+varint compressed (v2) adjacency blocks instead
	// of raw fixed-size (v1) records.
	Compress bool
	// Shards hash-partitions the graph into that many images, base.shard0..
	// on disk; 0 or 1 writes one plain image.
	Shards int
	// InEdges appends a transpose in-edge section to a directed graph, the
	// data the direction-switching BFS driver needs. A graph marked symmetric
	// (graph.CSR.Symmetric) needs none and gets none: its file carries the
	// header's symmetric flag either way, which costs nothing.
	InEdges bool
}

// BindWrite registers on fs the writer flags cmd/gengraph and cmd/convert
// share: -compress -shards -symmetric. After fs.Parse, the returned function
// yields the WriteOptions they fill, or a usage error.
func BindWrite(fs *flag.FlagSet) func() (WriteOptions, error) {
	var o WriteOptions
	fs.BoolVar(&o.Compress, "compress", false, "write the delta+varint compressed (v2) edge format")
	fs.IntVar(&o.Shards, "shards", 1, "hash-partition the graph into N shard files (out.shard0..N-1)")
	fs.BoolVar(&o.InEdges, "symmetric", false, "append a transpose in-edge section to a directed graph, so BFS can switch direction on it (an undirected graph is its own transpose and needs none)")
	return func() (WriteOptions, error) {
		if o.Shards < 1 {
			return o, fmt.Errorf("-shards must be >= 1, got %d", o.Shards)
		}
		return o, nil
	}
}

// Format names the edge layout o selects, for banners and table notes.
// symmetric is the graph's own mark: such a graph carries the header flag and
// never a section.
func (o WriteOptions) Format(symmetric bool) string {
	format := "raw"
	if o.Compress {
		format = "compressed"
	}
	switch {
	case symmetric:
		format += "+symmetric"
	case o.InEdges:
		format += "+inedges"
	}
	return format
}

// Files names what WriteFiles(base, ...) writes, for messages: base itself, or
// base.shard0..N-1.
func (o WriteOptions) Files(base string) string {
	if o.Shards > 1 {
		return fmt.Sprintf("%s.shard0..%d", base, o.Shards-1)
	}
	return base
}

// configs is the sem.WriteConfig of each image of g the set o selects, in
// shard order: the one place the shard loop and the symmetric-vs-in-edge rule
// live.
func (o WriteOptions) configs(g *graph.CSR[uint32]) []sem.WriteConfig {
	cfgs := make([]sem.WriteConfig, max(o.Shards, 1))
	for k := range cfgs {
		cfgs[k] = sem.WriteConfig{Compress: o.Compress, InEdges: o.InEdges && !g.Symmetric()}
		if o.Shards > 1 {
			cfgs[k].Shard = &sem.ShardConfig{Shard: k, Shards: o.Shards}
		}
	}
	return cfgs
}

// WriteFiles writes g as the file base, or as the shard set base.shard0..N-1
// that Files mounts when o.Shards > 1.
func WriteFiles(base string, g *graph.CSR[uint32], o WriteOptions) error {
	for k, cfg := range o.configs(g) {
		path := base
		if cfg.Shard != nil {
			path = sem.ShardFileName(base, k)
		}
		if err := WriteFile(path, func(w io.Writer) error { return sem.Write(w, g, cfg) }); err != nil {
			return err
		}
	}
	return nil
}

// WriteBackings serializes g into memory: the backings Graph mounts, one per
// shard.
func WriteBackings(g *graph.CSR[uint32], o WriteOptions) ([]ssd.Backing, error) {
	var backings []ssd.Backing
	for _, cfg := range o.configs(g) {
		var buf bytes.Buffer
		if err := sem.Write(&buf, g, cfg); err != nil {
			return nil, err
		}
		backings = append(backings, &ssd.MemBacking{Data: buf.Bytes()})
	}
	return backings, nil
}

// WriteFile creates path and streams write's output into it through a
// buffered writer, reporting the first of the write, flush and close errors.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := write(w); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // likewise the flush error
		return err
	}
	return f.Close()
}
