package harness

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lockfree"
	"repro/internal/mount"
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
	src := pickSource(g)
	adj := o.wrap(g)
	for _, w := range []int{1, 4, 16, 64, 256, 512, 1024} {
		var res *core.BFSResult[uint32]
		dur, err := timeIt(func() error {
			var err error
			res, err = core.BFS[uint32](adj, src, core.Config{Workers: w})
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

// AblationHash compares the default near-uniform Fibonacci queue-selection
// hash against an identity hash (paper §III-A: "a near-uniform hash function
// may improve load balance amongst the visitor queues as high-cost vertices
// will be uniformly distributed").
func AblationHash(o Options) (*Table, error) {
	t := &Table{
		Title: "Ablation: queue-selection hash (async CC, RMAT-B)",
		Cols:  []string{"hash", "workers", "time(s)", "visits"},
	}
	scale := o.Scales[len(o.Scales)-1]
	g, err := gen.RMATUndirected[uint32](scale, o.Degree, gen.RMATB, o.Seed)
	if err != nil {
		return nil, err
	}
	adj := o.wrap(g)
	hashes := []struct {
		Name string
		Fn   func(uint64) uint64
	}{
		{"fibonacci", core.FibHash},
		{"identity", core.IdentityHash},
	}
	for _, h := range hashes {
		for _, w := range []int{16, 512} {
			var res *core.CCResult[uint32]
			dur, err := timeIt(func() error {
				var err error
				res, err = core.CC[uint32](adj, core.Config{Workers: w, Hash: h.Fn})
				return err
			})
			if err != nil {
				return nil, err
			}
			t.Add(h.Name, fmt.Sprintf("%d", w), Seconds(dur), fmt.Sprintf("%d", res.Stats.Visits))
			o.logf("ablation-hash: %s workers=%d done\n", h.Name, w)
		}
	}
	return t, nil
}

// runSEMBFS times one BFS from src on a fresh mount of g (no repetitions: the
// single-store ablations report the counters of exactly the run they timed).
func runSEMBFS(o Options, g *graph.CSR[uint32], p ssd.Profile, src uint32) (time.Duration, SEMIO, error) {
	o.SEMReps = 1
	return timeSEM(o, g, p, func(adj graph.Adjacency[uint32], cfg core.Config) error {
		_, err := core.BFS[uint32](adj, src, cfg)
		return err
	})
}

// AblationSemiSort measures the device-read savings of the secondary
// vertex-id sort key on semi-external traversal (paper §IV-C: semi-sorting
// "increases access locality to the storage devices").
func AblationSemiSort(o Options) (*Table, error) {
	t := &Table{
		Title: "Ablation: SEM semi-sort locality (async BFS, RMAT-A, FusionIO)",
		Cols:  []string{"semiSort", "time(s)", "devReads", "cacheHit%"},
	}
	scale := o.SEMScales[len(o.SEMScales)-1]
	g, err := gen.RMAT[uint32](scale, o.Degree, gen.RMATA, o.Seed)
	if err != nil {
		return nil, err
	}
	src := pickSource(g)
	for _, sorted := range []bool{true, false} {
		opts := o
		opts.SemiSort = sorted
		dur, io, err := runSEMBFS(opts, g, ssd.FusionIO, src)
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("%v", sorted), Seconds(dur),
			fmt.Sprintf("%d", io.Device.Reads), fmt.Sprintf("%.1f", 100*io.CacheHitRate()))
		o.logf("ablation-semisort: sorted=%v done\n", sorted)
	}
	return t, nil
}

// AblationCache sweeps the semi-external block-cache budget, exposing how
// the paper's implicit OS-page-cache capacity governs SEM performance.
func AblationCache(o Options) (*Table, error) {
	t := &Table{
		Title: "Ablation: SEM cache budget (async BFS, RMAT-A, Intel)",
		Cols:  []string{"cacheFrac", "time(s)", "devReads", "cacheHit%"},
	}
	scale := o.SEMScales[len(o.SEMScales)-1]
	g, err := gen.RMAT[uint32](scale, o.Degree, gen.RMATA, o.Seed)
	if err != nil {
		return nil, err
	}
	src := pickSource(g)
	for _, frac := range []int64{2, 4, 8, 16, 64} {
		opts := o
		opts.CacheFrac = frac
		dur, io, err := runSEMBFS(opts, g, ssd.Intel, src)
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("1/%d", frac), Seconds(dur),
			fmt.Sprintf("%d", io.Device.Reads), fmt.Sprintf("%.1f", 100*io.CacheHitRate()))
		o.logf("ablation-cache: frac=1/%d done\n", frac)
	}
	return t, nil
}

// AblationEngine compares the paper's ownership-hashed engine against the
// lock-free alternative (atomic CAS relaxation + work stealing), quantifying
// the design choices of §III-A.
func AblationEngine(o Options) (*Table, error) {
	t := &Table{
		Title: "Ablation: engine design (BFS, RMAT-A)",
		Note:  "ownership = hash-routed queues, plain writes; lockfree = CAS labels + stealing",
		Cols:  []string{"engine", "workers", "time(s)", "visits", "extra"},
	}
	scale := o.Scales[len(o.Scales)-1]
	g, err := gen.RMAT[uint32](scale, o.Degree, gen.RMATA, o.Seed)
	if err != nil {
		return nil, err
	}
	src := pickSource(g)
	adj := o.wrap(g)
	for _, w := range []int{16, 512} {
		var res *core.BFSResult[uint32]
		dur, err := timeIt(func() error {
			var err error
			res, err = core.BFS[uint32](adj, src, core.Config{Workers: w})
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Add("ownership-heap", fmt.Sprintf("%d", w), Seconds(dur),
			fmt.Sprintf("%d", res.Stats.Visits), "")

		var lf *lockfree.Result
		dur, err = timeIt(func() error {
			var err error
			lf, err = lockfree.BFS(adj, src, lockfree.Config{Workers: w})
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Add("lockfree-steal", fmt.Sprintf("%d", w), Seconds(dur),
			fmt.Sprintf("%d", lf.Stats.Visits),
			fmt.Sprintf("steals=%d casFail=%d", lf.Stats.Steals, lf.Stats.CASFail))
		o.logf("ablation-engine: workers=%d done\n", w)
	}
	return t, nil
}

// AblationPrefetch sweeps the semi-external asynchronous I/O pipeline: the
// pop-window size (core.Config.Prefetch) against the span-coalescing gap
// (sem.PrefetchConfig.MaxGap), per device profile. The graph is mounted on
// the raw device with no block cache, so the devReads column is exactly the
// number of ReadAt operations the traversal issued and the coalescing effect
// is undiluted: window 0 pays one latency term per visited vertex, a window
// with a generous gap pays one per span. The v/span column is the coalescing
// rate (window vertices covered by one device read); gapB is the bytes read
// only to bridge near-contiguous extents.
func AblationPrefetch(o Options) (*Table, error) {
	t := &Table{
		Title: "Ablation: SEM prefetch pipeline (async BFS, RMAT-A, raw device)",
		Note: fmt.Sprintf("no block cache; %d workers; window = pop-window size, gap = coalescing slack (bytes)",
			o.SEMThreads),
		Cols: []string{"profile", "window", "gap", "time(s)", "devReads", "avgRead(B)", "v/span", "consumed%", "gapMB"},
	}
	scale := o.SEMScales[len(o.SEMScales)-1]
	g, err := gen.RMAT[uint32](scale, o.Degree, gen.RMATA, o.Seed)
	if err != nil {
		return nil, err
	}
	src := pickSource(g)
	backings, err := serialize(g, sem.WriteConfig{}, 1)
	if err != nil {
		return nil, err
	}
	type setting struct{ window, gap int }
	settings := []setting{
		{0, 0},
		{16, 0},
		{16, 4096},
		{16, sem.DefaultPrefetchGap},
		{64, sem.DefaultPrefetchGap},
	}
	for _, p := range ssd.Profiles {
		for _, s := range settings {
			m, err := mount.Graph(backings, mount.Options{
				SEM: true, Profile: p, NoCache: true, SemiSort: true,
				Prefetch: s.window, PrefetchGap: s.gap,
			})
			if err != nil {
				return nil, err
			}
			dur, err := timeIt(func() error {
				_, err := core.BFS[uint32](m.Adj, src, o.semConfig(m))
				return err
			})
			if err != nil {
				return nil, err
			}
			st := m.Devices[0].Stats()
			vps, consumed, gapMB := "-", "-", "-"
			if ps := m.Graphs[0].PrefetchStats(); s.window > 1 {
				vps = fmt.Sprintf("%.1f", ps.VertsPerSpan())
				consumed = fmt.Sprintf("%.0f%%", 100*ps.ConsumedFrac())
				gapMB = fmt.Sprintf("%.1f", float64(ps.GapBytes)/(1<<20))
			}
			t.Add(p.Name, fmt.Sprintf("%d", s.window), fmt.Sprintf("%d", s.gap),
				Seconds(dur), fmt.Sprintf("%d", st.Reads),
				fmt.Sprintf("%.0f", st.AvgReadBytes()), vps, consumed, gapMB)
			o.logf("ablation-prefetch: %s window=%d gap=%d done\n", p.Name, s.window, s.gap)
		}
	}
	return t, nil
}

// AblationStripe sweeps RAID-0 stripe width at fixed aggregate parallelism:
// the paper's configurations are all 4-member software RAID 0 arrays, and
// striping is what lets commodity SATA SSDs reach array-level IOPS.
func AblationStripe(o Options) (*Table, error) {
	t := &Table{
		Title: "Ablation: RAID-0 stripe width (SEM BFS, RMAT-A, FusionIO-class array)",
		Note:  "per-card channels = aggregate/cards; 64 KiB chunks (paper: 4-card software RAID 0)",
		Cols:  []string{"cards", "time(s)", "devReads"},
	}
	scale := o.SEMScales[len(o.SEMScales)-1]
	g, err := gen.RMAT[uint32](scale, o.Degree, gen.RMATA, o.Seed)
	if err != nil {
		return nil, err
	}
	src := pickSource(g)
	backings, err := serialize(g, sem.WriteConfig{}, 1)
	if err != nil {
		return nil, err
	}
	for _, cards := range []int{1, 2, 4} {
		// Fixed per-card hardware: stripe width multiplies available
		// parallelism, as adding cards to the array did for the authors.
		card := ssd.CardProfile(ssd.FusionIO, 4)
		arr, err := ssd.NewRAID0Array(card, cards, 64*1024, backings[0])
		if err != nil {
			return nil, err
		}
		m, err := mount.Stores([]sem.Store{arr}, mount.Options{CacheFrac: o.CacheFrac, Readahead: o.Readahead, SemiSort: true})
		if err != nil {
			return nil, err
		}
		dur, err := timeIt(func() error {
			_, err := core.BFS[uint32](m.Adj, src, o.semConfig(m))
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("%d", cards), Seconds(dur), fmt.Sprintf("%d", arr.Stats().Reads))
		o.logf("ablation-stripe: cards=%d done\n", cards)
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
	src := pickSource(g)
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
		Note:  "writes charge WriteLatency (2.5-3x ReadLatency per §II-D); 64 KiB transfers",
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
		t.Add(p.Name, Seconds(writeTime), Seconds(readTime), Ratio(writeTime, readTime))
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
// exists. Non-top-down mounts carry the on-flash in-edge section; top-down
// rows mount the historical layout.
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
		inputs = append(inputs, input{fmt.Sprintf("%s 2^%d", variant.Name, scale), g, pickSource(g), all})
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

	// The scan-phase double buffering (and its ScanSpans/ScanBytes counters)
	// lives in the prefetcher, so the ablation always mounts with the pipeline
	// on — the direction comparison should not also toggle I/O overlap.
	if o.Prefetch <= 1 {
		o.Prefetch, o.PrefetchGap = 64, sem.DefaultPrefetchGap
	}
	for _, in := range inputs {
		for _, dir := range in.dirs {
			opts := o
			opts.Direction = dir
			var stats core.Stats
			dur, io, err := timeSEM(opts, in.g, ssd.FusionIO, func(adj graph.Adjacency[uint32], cfg core.Config) error {
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

// AblationCachePolicy compares the legacy recency-only block-cache eviction
// (lru) against the state-aware policy (state: settle counters pin blocks with
// queued visitors, pop-windows prefer cache-resident vertices, workers share
// in-flight spans) at equal cache size. The interesting regime is eviction
// pressure: at the harness default half-graph budget both policies mostly hit,
// so the comparison mounts with a tighter budget, identical for both. RMAT
// rows run all three flash profiles and carry the reads/edge claim; chain and
// grid rows are the guard — their narrow frontiers give the state policy
// nothing to pin, and its row must not regress wall clock. Each claim: /
// guard: line in the rendered note is machine-greppable; CI's cache-policy
// smoke step asserts them.
func AblationCachePolicy(o Options) (*Table, error) {
	t := &Table{
		Title: "Ablation: SEM block-cache policy (async BFS, equal cache size)",
		Cols:  []string{"graph", "profile", "policy", "time(s)", "devReads", "rd/edge", "cacheHit%", "pinnedHW", "inflHW", "dedupSp"},
	}
	// The cell is pinned, not inherited from the sweep options: the policies
	// only separate under sustained eviction pressure with a victim set big
	// enough for replacement order to matter. A quarter-graph budget at
	// scale 13 puts the cache at 64 blocks against a 256-block edge file —
	// large enough that announce-time residency survives to visit time (so
	// keeping the right blocks pays), small enough that both policies evict
	// constantly. At half-graph budgets both policies mostly hit; at an
	// eighth of the graph the churn is so fast no replacement order matters.
	scale := 13
	o.SEMThreads = 32
	o.CacheFrac = 4
	if o.Prefetch <= 1 {
		o.Prefetch = 64
	}
	// DefaultPrefetchGap (32 KiB) is sized for paper-scale edge files; at
	// ablation scales it bridges most of the edge region, every pop-window
	// degenerates into a near-sequential sweep, and no eviction policy can
	// matter. A one-block gap keeps spans honest about locality, so the
	// policies differ by what the cache keeps, not by what the prefetcher
	// accidentally streams.
	o.PrefetchGap = 4096
	t.Note = fmt.Sprintf("cache=edges/%d (equal for both policies), %d workers, window=%d; state = settle-counter pinning + cache-affine pop-windows + span dedup",
		o.CacheFrac, o.SEMThreads, o.Prefetch)
	type input struct {
		name     string
		g        *graph.CSR[uint32]
		src      uint32
		profiles []ssd.Profile
		claim    bool // RMAT rows claim reads/edge wins; others guard wall clock
	}
	var inputs []input
	for _, variant := range rmatVariants {
		g, err := gen.RMAT[uint32](scale, o.Degree, variant.Params, o.Seed)
		if err != nil {
			return nil, err
		}
		inputs = append(inputs, input{fmt.Sprintf("%s 2^%d", variant.Name, scale), g, pickSource(g), ssd.Profiles, true})
	}
	chain, err := gen.Chain[uint32](1 << scale)
	if err != nil {
		return nil, err
	}
	inputs = append(inputs, input{fmt.Sprintf("chain 2^%d", scale), chain, 0, []ssd.Profile{ssd.FusionIO}, false})
	side := uint64(1) << (scale / 2)
	grid, err := gen.Grid[uint32](side, side)
	if err != nil {
		return nil, err
	}
	inputs = append(inputs, input{fmt.Sprintf("grid %dx%d", side, side), grid, 0, []ssd.Profile{ssd.FusionIO}, false})

	policies := []string{sem.PolicyLRU, sem.PolicyState}
	var claims []string
	for _, in := range inputs {
		wins, runs := 0, 0
		for _, p := range in.profiles {
			var rpe [2]float64
			var dur [2]time.Duration
			for pi, pol := range policies {
				opts := o
				opts.CachePolicy = sem.CachePolicyConfig{Kind: pol}
				// Async BFS is nondeterministic: per-run device reads vary by
				// several percent as label corrections race. One draw per cell
				// would compare noise, not policies, so the claim metric is
				// the per-rep MEAN of device reads over fresh mounts (wall
				// clock stays best-of, matching the other SEM tables). The
				// mean's standard error shrinks with the rep count, which is
				// why claim cells run more reps than guard cells.
				reps := opts.SEMReps
				if in.claim && reps < 6 {
					reps = 6
				} else if reps < 3 {
					reps = 3
				}
				opts.SEMReps = 1
				var d time.Duration
				var io SEMIO
				var sumReads uint64
				for r := 0; r < reps; r++ {
					rd, rio, err := timeSEM(opts, in.g, p, func(adj graph.Adjacency[uint32], cfg core.Config) error {
						_, err := core.BFS[uint32](adj, in.src, cfg)
						return err
					})
					if err != nil {
						return nil, err
					}
					sumReads += rio.Device.Reads
					if r == 0 || rd < d {
						d = rd
					}
					if r == 0 || rio.Device.Reads < io.Device.Reads {
						io = rio
					}
				}
				io.Device.Reads = sumReads / uint64(reps)
				rpe[pi], dur[pi] = io.ReadsPerEdge(), d
				t.Add(in.name, p.Name, pol, Seconds(d),
					fmt.Sprintf("%d", io.Device.Reads),
					fmt.Sprintf("%.4f", io.ReadsPerEdge()),
					fmt.Sprintf("%.1f", 100*io.CacheHitRate()),
					fmt.Sprintf("%d", io.PinnedHW),
					fmt.Sprintf("%d", io.CacheIO.InflightHW),
					fmt.Sprintf("%d", io.DedupSpans))
				o.logf("ablation-cachepolicy: %s %s %s done\n", in.name, p.Name, pol)
			}
			if in.claim {
				runs++
				if rpe[1] < rpe[0] {
					wins++
				}
			} else {
				claims = append(claims, fmt.Sprintf("guard: %s %s state/lru time ratio=%.2f",
					in.name, p.Name, dur[1].Seconds()/dur[0].Seconds()))
			}
		}
		if in.claim {
			claims = append(claims, fmt.Sprintf("claim: %s state reads/edge beats lru on %d/%d profiles", in.name, wins, runs))
		}
	}
	t.Note += "\n" + strings.Join(claims, "\n")
	return t, nil
}

// Ablations runs every ablation study.
func Ablations(o Options) ([]*Table, error) {
	var tables []*Table
	for _, fn := range []func(Options) (*Table, error){
		AblationOversubscription, AblationHash, AblationSemiSort, AblationCache,
		AblationEngine, AblationPrefetch,
		AblationStripe, AblationSSSP, AblationWriteAsymmetry, AblationDirection,
		AblationCachePolicy,
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
			res, err = core.BFS[uint32](adj, 0, core.Config{Workers: w})
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
