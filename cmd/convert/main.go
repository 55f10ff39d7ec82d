// Command convert translates between the text edge-list format used by
// public graph-trace distributions and this repository's binary semi-external
// graph format.
//
// Examples:
//
//	convert -in trace.txt -out trace.asg                 # text -> binary
//	convert -in graph.asg -out graph.txt -to edgelist    # binary -> text
//	convert -in trace.txt -out und.asg -symmetrize       # make undirected
//	convert -in graph.asg -out graph.casg -compress      # raw -> compressed v2
//	convert -in graph.asg -out g.asg -shards 4           # -> g.asg.shard0..3
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/graph"
	"repro/internal/mount"
	"repro/internal/sem"
	"repro/internal/ssd"
)

func main() {
	var (
		in         = flag.String("in", "", "input file (required)")
		out        = flag.String("out", "", "output file (required)")
		to         = flag.String("to", "asg", "output format: asg (binary) or edgelist (text)")
		minVerts   = flag.Uint64("minverts", 0, "minimum vertex count for edge-list input")
		symmetrize = flag.Bool("symmetrize", false, "add reverse edges (undirected output)")
	)
	writeFlags := mount.BindWrite(flag.CommandLine) // -compress -shards -symmetric, for -to asg
	flag.Parse()
	if *in == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "convert: -in and -out are required")
		flag.Usage()
		os.Exit(2)
	}
	wopt, err := writeFlags()
	if err != nil {
		fmt.Fprintf(os.Stderr, "convert: %v\n", err)
		os.Exit(2)
	}
	if err := run(*in, *out, *to, *minVerts, *symmetrize, wopt); err != nil {
		fmt.Fprintf(os.Stderr, "convert: %v\n", err)
		os.Exit(1)
	}
}

func run(in, out, to string, minVerts uint64, symmetrize bool, wopt mount.WriteOptions) error {
	switch to {
	case "asg":
	case "edgelist":
		if wopt.Compress || wopt.Shards > 1 || wopt.InEdges {
			return fmt.Errorf("-compress, -shards and -symmetric only apply to -to asg output")
		}
	default:
		return fmt.Errorf("unknown -to %q (want asg or edgelist)", to)
	}
	g, err := load(in, minVerts)
	if err != nil {
		return err
	}
	if symmetrize {
		b := graph.NewBuilder[uint32](g.NumVertices(), g.Weighted())
		g.ForEachEdge(func(u, v uint32, w graph.Weight) {
			b.AddEdge(u, v, w)
		})
		b.Symmetrize()
		if g, err = b.Build(true); err != nil {
			return err
		}
	}

	if to == "asg" {
		err = mount.WriteFiles(out, g, wopt)
	} else {
		err = mount.WriteFile(out, func(w io.Writer) error { return graph.WriteEdgeList(w, g) })
	}
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d vertices, %d edges, weighted=%v\n",
		wopt.Files(out), g.NumVertices(), g.NumEdges(), g.Weighted())
	return nil
}

// load sniffs the input format: the binary header magic identifies .asg
// files, anything else is parsed as a text edge list.
func load(path string, minVerts uint64) (*graph.CSR[uint32], error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	header := make([]byte, 4)
	n, err := f.ReadAt(header, 0)
	if err != nil && err != io.EOF {
		return nil, err
	}
	if n == 4 && strings.HasPrefix(string(header), "ASG") {
		backing, err := ssd.NewFileBacking(f)
		if err != nil {
			return nil, err
		}
		return sem.LoadCSR[uint32](backing)
	}
	return graph.ReadEdgeList[uint32](bufio.NewReaderSize(f, 1<<20), minVerts)
}
