package harness

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sem"
	"repro/internal/ssd"
)

// AblationOversubscription sweeps the worker count far past the physical
// core count, the paper's §IV-A observation that "using as many as 512
// threads on 16 cores offers substantial benefit" because each worker owns a
// queue and more queues mean less lock contention.
func AblationOversubscription(o Options) (*Table, error) {
	t := &Table{
		Title: "Ablation: thread oversubscription (async BFS, RMAT-A)",
		Note:  "per-thread queues: more workers = less queue contention (paper §IV-A)",
		Cols:  []string{"workers", "time(s)", "visits", "pushes", "maxQueue"},
	}
	scale := o.Scales[len(o.Scales)-1]
	g, err := gen.RMAT[uint32](scale, o.Degree, gen.RMATA, o.Seed)
	if err != nil {
		return nil, err
	}
	src := graph.MaxDegreeVertex[uint32](g)
	adj := o.wrap(g)
	for _, w := range []int{1, 4, 16, 64, 256, 512, 1024} {
		var res *core.BFSResult[uint32]
		dur, err := timeIt(func() error {
			var err error
			res, err = core.BFS[uint32](adj, src, core.Config{Workers: w, Direction: core.DirectionTopDown})
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("%d", w), Seconds(dur),
			fmt.Sprintf("%d", res.Stats.Visits), fmt.Sprintf("%d", res.Stats.Pushes),
			fmt.Sprintf("%d", res.Stats.MaxQueue))
		o.logf("ablation-oversub: workers=%d done\n", w)
	}
	return t, nil
}

// AblationSSSP compares the three parallel shortest-path disciplines:
// serial Dijkstra (total order), Δ-stepping (bucketed order with barriers),
// and the paper's fully asynchronous label-correcting traversal.
func AblationSSSP(o Options) (*Table, error) {
	t := &Table{
		Title: "Ablation: SSSP discipline (RMAT-A, UW weights)",
		Note:  "Dijkstra = total order; Δ-stepping = bucket barriers; async = no ordering, label correction",
		Cols:  []string{"algorithm", "time(s)"},
	}
	scale := o.Scales[len(o.Scales)-1]
	g, err := gen.RMAT[uint32](scale, o.Degree, gen.RMATA, o.Seed)
	if err != nil {
		return nil, err
	}
	g, err = gen.UniformWeights(g, o.Seed)
	if err != nil {
		return nil, err
	}
	src := graph.MaxDegreeVertex[uint32](g)
	adj := o.wrap(g)

	dur, err := timeIt(func() error {
		_, _, err := baseline.SerialDijkstra[uint32](adj, src)
		return err
	})
	if err != nil {
		return nil, err
	}
	t.Add("dijkstra", Seconds(dur))
	for _, delta := range []uint64{1 << 8, 1 << 12, 1 << 16} {
		dur, err := timeIt(func() error {
			_, err := baseline.DeltaStepping[uint32](adj, src, delta, o.SyncWorkers)
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("delta-stepping Δ=2^%d", log2(delta)), Seconds(dur))
		o.logf("ablation-sssp: delta=%d done\n", delta)
	}
	for _, w := range []int{16, 512} {
		dur, err := timeIt(func() error {
			_, err := core.SSSP[uint32](adj, src, core.Config{Workers: w})
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("async %d workers", w), Seconds(dur))
	}
	return t, nil
}

func log2(v uint64) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// AblationWriteAsymmetry measures the paper's §II-D flash property that
// "writes are more costly than reads": serializing a graph onto each device
// (the build path) versus reading it back (the traversal path).
func AblationWriteAsymmetry(o Options) (*Table, error) {
	t := &Table{
		Title: "Ablation: flash write/read asymmetry (graph build vs load, RMAT-A)",
		Note:  "writes charge WriteLatency (2.5-3x ReadLatency per §II-D); 64 KiB transfers; write/read is the modelled service time, the (s) columns wall clock",
		Cols:  []string{"device", "write(s)", "read(s)", "write/read"},
	}
	scale := o.SEMScales[0]
	g, err := gen.RMAT[uint32](scale, o.Degree, gen.RMATA, o.Seed)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := sem.Write(&buf, g, sem.WriteConfig{}); err != nil {
		return nil, err
	}
	data := buf.Bytes()
	for _, p := range ssd.Profiles {
		dev := ssd.New(p, &ssd.MemBacking{})
		const chunk = 64 * 1024
		writeTime, err := timeIt(func() error {
			for off := 0; off < len(data); off += chunk {
				end := off + chunk
				if end > len(data) {
					end = len(data)
				}
				if _, err := dev.WriteAt(data[off:end], int64(off)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		readTime, err := timeIt(func() error {
			buf := make([]byte, chunk)
			for off := 0; off < len(data); off += chunk {
				end := off + chunk
				if end > len(data) {
					end = len(data)
				}
				if _, err := dev.ReadAt(buf[:end-off], int64(off)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		st := dev.Stats()
		t.Add(p.Name, Seconds(writeTime), Seconds(readTime), Ratio(st.WriteTime, st.ReadTime))
		o.logf("ablation-write: %s done\n", p.Name)
	}
	return t, nil
}

// AblationDirection compares forced top-down, forced bottom-up, and the
// frontier-adaptive hybrid controller on semi-external BFS (Table IV's
// FusionIO profile). Scale-free RMAT frontiers go dense within a few phases,
// so bottom-up in-edge scans settle most vertices from a handful of
// sequential device spans; high-diameter chain/grid frontiers never cross the
// α threshold and must stay top-down (the hybrid guard rows). Forced
// bottom-up is omitted on the high-diameter rows — scanning every unvisited
// vertex per phase is quadratic there, which is exactly why the controller
// exists. Every row mounts the same files, in-edge section included, and
// forces its side in code: this is the one exhibit that runs the driver.
func AblationDirection(o Options) (*Table, error) {
	t := &Table{
		Title: "Ablation: traversal direction (SEM BFS, FusionIO)",
		Note:  "α/β derived per graph from degree stats; td/bu = phase counts, scanSpans = coalesced bottom-up degree-array reads",
		Cols:  []string{"graph", "direction", "time(s)", "devReads", "readMB", "td", "bu", "switch", "scanSpans"},
	}
	scale := o.SEMScales[len(o.SEMScales)-1]
	all := []core.Direction{core.DirectionTopDown, core.DirectionBottomUp, core.DirectionHybrid}
	guard := []core.Direction{core.DirectionTopDown, core.DirectionHybrid}
	type input struct {
		name string
		g    *graph.CSR[uint32]
		src  uint32
		dirs []core.Direction
	}
	var inputs []input
	for _, variant := range rmatVariants {
		g, err := gen.RMAT[uint32](scale, o.Degree, variant.Params, o.Seed)
		if err != nil {
			return nil, err
		}
		inputs = append(inputs, input{fmt.Sprintf("%s 2^%d", variant.Name, scale), g, graph.MaxDegreeVertex[uint32](g), all})
	}
	chain, err := gen.Chain[uint32](1 << scale)
	if err != nil {
		return nil, err
	}
	inputs = append(inputs, input{fmt.Sprintf("chain 2^%d", scale), chain, 0, guard})
	side := uint64(1) << (scale / 2)
	grid, err := gen.Grid[uint32](side, side)
	if err != nil {
		return nil, err
	}
	inputs = append(inputs, input{fmt.Sprintf("grid %dx%d", side, side), grid, 0, guard})

	// On the raw device both sides request sweeps — the kernel its pops,
	// the driver its frontier slices and scan spans — so the
	// direction comparison does not also toggle I/O overlap.
	o.NoCache, o.inEdges = true, true
	for _, in := range inputs {
		for _, dir := range in.dirs {
			var stats core.Stats
			dur, io, err := timeSEM(o, in.g, ssd.FusionIO, func(adj graph.Adjacency[uint32], cfg core.Config) error {
				cfg.Direction = dir
				res, err := core.BFS[uint32](adj, in.src, cfg)
				if err == nil {
					stats = res.Stats
				}
				return err
			})
			if err != nil {
				return nil, err
			}
			t.Add(in.name, dir.String(), Seconds(dur),
				fmt.Sprintf("%d", io.Device.Reads),
				fmt.Sprintf("%.1f", float64(io.Device.BytesRead)/(1<<20)),
				fmt.Sprintf("%d", stats.TopDownPhases),
				fmt.Sprintf("%d", stats.BottomUpPhases),
				fmt.Sprintf("%d", stats.DirectionSwitches),
				fmt.Sprintf("%d", io.Prefetch.ScanSpans))
			o.logf("ablation-direction: %s %s done\n", in.name, dir)
		}
	}
	return t, nil
}

// Ablations runs every ablation study.
func Ablations(o Options) ([]*Table, error) {
	var tables []*Table
	for _, fn := range []func(Options) (*Table, error){
		AblationOversubscription, AblationSSSP, AblationWriteAsymmetry, AblationDirection,
	} {
		tbl, err := fn(o)
		if err != nil {
			return nil, err
		}
		tables = append(tables, tbl)
	}
	return tables, nil
}

// Figure2 demonstrates the worst-case serialized traversal of Figure 2: on a
// chain graph the asynchronous traversal cannot exploit parallelism, so added
// workers do not help — the paper's §III-B1 bound discussion.
func Figure2(o Options) (*Table, error) {
	t := &Table{
		Title: "Figure 2: worst-case chain graph (no path parallelism)",
		Note:  "async BFS on a directed chain: worker count cannot help (§III-B1)",
		Cols:  []string{"workers", "time(s)", "visits"},
	}
	n := uint64(1) << o.Scales[0]
	g, err := gen.Chain[uint32](n)
	if err != nil {
		return nil, err
	}
	adj := o.wrap(g)
	for _, w := range []int{1, 16, 512} {
		var res *core.BFSResult[uint32]
		dur, err := timeIt(func() error {
			var err error
			res, err = core.BFS[uint32](adj, 0, core.Config{Workers: w, Direction: core.DirectionTopDown})
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("%d", w), Seconds(dur), fmt.Sprintf("%d", res.Stats.Visits))
	}
	return t, nil
}

// All runs every experiment in paper order and returns the tables.
func All(o Options) ([]*Table, error) {
	type exp struct {
		name string
		fn   func(Options) (*Table, error)
	}
	var tables []*Table
	for _, e := range []exp{
		{"fig1", Figure1}, {"fig2", Figure2},
		{"table1", Table1}, {"table2", Table2}, {"table3", Table3},
		{"table4", Table4}, {"table5", Table5},
	} {
		start := time.Now()
		tbl, err := e.fn(o)
		if err != nil {
			return nil, fmt.Errorf("harness: %s: %w", e.name, err)
		}
		o.logf("%s finished in %s\n", e.name, time.Since(start).Round(time.Millisecond))
		tables = append(tables, tbl)
	}
	abl, err := Ablations(o)
	if err != nil {
		return nil, err
	}
	return append(tables, abl...), nil
}
