// Command gengraph generates the paper's synthetic workloads and writes them
// in the semi-external graph format consumed by cmd/traverse.
//
// Examples:
//
//	gengraph -type rmat-a -scale 16 -degree 16 -out a16.asg
//	gengraph -type rmat-b -scale 14 -undirected -out b14u.asg
//	gengraph -type rmat-a -scale 14 -weights uw -out a14w.asg
//	gengraph -type web -scale 15 -out web.asg
//	gengraph -type chain -scale 12 -out chain.asg
//	gengraph -type rmat-b -scale 16 -shards 4 -out b16.asg   # b16.asg.shard0..3
package main

import (
	"flag"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"os"

	"repro/internal/extsort"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mount"
)

func main() {
	var (
		typ        = flag.String("type", "rmat-a", "graph type: rmat-a, rmat-b, web, er, chain, grid")
		scale      = flag.Int("scale", 14, "log2 number of vertices")
		degree     = flag.Int("degree", 16, "average out-degree (rmat/er)")
		undirected = flag.Bool("undirected", false, "symmetrize edges (for CC)")
		weights    = flag.String("weights", "", "edge weights: '', uw (uniform), luw (log-uniform)")
		seed       = flag.Uint64("seed", 42, "generator seed")
		out        = flag.String("out", "", "output file (required)")
		outOfCore  = flag.Bool("outofcore", false, "build through the external-sort pipeline (bounded memory)")
		budget     = flag.Int("budget", 1<<20, "in-memory edge budget for -outofcore")
	)
	writeFlags := mount.BindWrite(flag.CommandLine)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "gengraph: -out is required")
		flag.Usage()
		os.Exit(2)
	}
	wopt, err := writeFlags()
	if err != nil {
		fmt.Fprintf(os.Stderr, "gengraph: %v\n", err)
		os.Exit(2)
	}
	if err := run(*typ, *scale, *degree, *undirected, *weights, *seed, *out, *outOfCore, *budget, wopt); err != nil {
		fmt.Fprintf(os.Stderr, "gengraph: %v\n", err)
		os.Exit(1)
	}
}

func run(typ string, scale, degree int, undirected bool, weights string, seed uint64, out string, outOfCore bool, budget int, wopt mount.WriteOptions) error {
	if outOfCore {
		if wopt.Compress || wopt.Shards > 1 || wopt.InEdges {
			// The external-sort builder streams one sorted run of fixed records
			// straight to the file: block encoding needs a vertex's whole
			// adjacency list, hash partitioning scatters edges across files,
			// and the in-edge section needs the finished forward index.
			return fmt.Errorf("-compress, -shards and -symmetric do not combine with -outofcore; generate raw and convert afterwards")
		}
		return runOutOfCore(typ, scale, degree, undirected, weights, seed, out, budget)
	}
	g, err := build(typ, scale, degree, undirected, seed)
	if err != nil {
		return err
	}
	switch weights {
	case "":
	case "uw":
		if g, err = gen.UniformWeights(g, seed+1); err != nil {
			return err
		}
	case "luw":
		if g, err = gen.LogUniformWeights(g, seed+1); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown -weights %q (want uw or luw)", weights)
	}

	if err := mount.WriteFiles(out, g, wopt); err != nil {
		return err
	}
	// undirected is the graph's own answer (web graphs are, asked or not; a
	// chain or grid is not, asked or not): its file serves in-edges as is.
	fmt.Printf("wrote %s (%s): %d vertices, %d edges, weighted=%v, undirected=%v\n",
		wopt.Files(out), wopt.Format(g.Symmetric()), g.NumVertices(), g.NumEdges(), g.Weighted(), g.Symmetric())
	return nil
}

// runOutOfCore streams RMAT edges through the external-sort builder, never
// materializing the edge list in memory — how the paper-scale inputs
// (billions of edges) are prepared.
func runOutOfCore(typ string, scale, degree int, undirected bool, weights string, seed uint64, out string, budget int) error {
	var params gen.RMATParams
	switch typ {
	case "rmat-a":
		params = gen.RMATA
	case "rmat-b":
		params = gen.RMATB
	default:
		return fmt.Errorf("-outofcore supports rmat-a and rmat-b, got %q", typ)
	}
	n := uint64(1) << scale
	weighted := weights != ""
	b := extsort.NewBuilder(n, weighted, budget, "")
	defer b.Cleanup()
	wgen, err := weightGen(weights, n, seed+1)
	if err != nil {
		return err
	}
	// Stream edges in batches so peak memory stays at the batch size plus
	// the builder's budget.
	const batch = 1 << 18
	total := n * uint64(degree)
	for done := uint64(0); done < total; done += batch {
		want := uint64(batch)
		if done+want > total {
			want = total - done
		}
		for _, e := range gen.RMATEdges[uint32](scale, want, params, seed+done) {
			// A self-loop draws one weight, any other undirected edge two: the
			// stream these files have always been generated from.
			w := wgen()
			if !undirected {
				err = b.Add(e.Src, e.Dst, w)
			} else if e.Src == e.Dst {
				err = b.AddUndirected(e.Src, e.Dst, w, w)
			} else {
				err = b.AddUndirected(e.Src, e.Dst, w, wgen())
			}
			if err != nil {
				return err
			}
		}
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	m, err := b.WriteTo(f)
	if err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s out-of-core: %d vertices, %d unique edges, weighted=%v, undirected=%v\n",
		out, n, m, weighted, undirected)
	return nil
}

// weightGen returns a weight source for the requested scheme.
func weightGen(scheme string, n, seed uint64) (func() graph.Weight, error) {
	switch scheme {
	case "":
		return func() graph.Weight { return 1 }, nil
	case "uw":
		r := rand.New(rand.NewPCG(seed, seed^0xABCD))
		return func() graph.Weight { return graph.Weight(r.Uint64N(n)) }, nil
	case "luw":
		r := rand.New(rand.NewPCG(seed, seed^0xDCBA))
		lg := bits.Len64(n) - 1
		if lg < 1 {
			lg = 1
		}
		return func() graph.Weight {
			i := r.IntN(lg)
			return graph.Weight(r.Uint64N(uint64(1) << i))
		}, nil
	default:
		return nil, fmt.Errorf("unknown -weights %q (want uw or luw)", scheme)
	}
}

func build(typ string, scale, degree int, undirected bool, seed uint64) (*graph.CSR[uint32], error) {
	n := uint64(1) << scale
	switch typ {
	case "rmat-a", "rmat-b":
		p := gen.RMATA
		if typ == "rmat-b" {
			p = gen.RMATB
		}
		if undirected {
			return gen.RMATUndirected[uint32](scale, degree, p, seed)
		}
		return gen.RMAT[uint32](scale, degree, p, seed)
	case "web":
		return gen.WebGraph[uint32](n, 4, 2, seed) // always undirected
	case "er":
		return gen.ErdosRenyi[uint32](n, n*uint64(degree), seed)
	case "chain":
		return gen.Chain[uint32](n)
	case "grid":
		side := uint64(1) << (scale / 2)
		return gen.Grid[uint32](side, n/side)
	default:
		return nil, fmt.Errorf("unknown -type %q (want rmat-a, rmat-b, web, er, chain, grid)", typ)
	}
}
