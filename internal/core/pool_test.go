package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func poolTestGraphs(t *testing.T) (directed, undirected, weighted *graph.CSR[uint32]) {
	t.Helper()
	var err error
	directed, err = gen.RMAT[uint32](10, 8, gen.RMATA, 3)
	if err != nil {
		t.Fatal(err)
	}
	undirected, err = gen.RMATUndirected[uint32](9, 8, gen.RMATA, 3)
	if err != nil {
		t.Fatal(err)
	}
	weighted, err = gen.UniformWeights(directed, 4)
	if err != nil {
		t.Fatal(err)
	}
	return directed, undirected, weighted
}

// TestEnginePoolMatchesStandalone runs every kernel through a pool twice
// (second run on recycled resources) and compares against the package
// functions.
func TestEnginePoolMatchesStandalone(t *testing.T) {
	directed, undirected, weighted := poolTestGraphs(t)
	cfg := Config{Workers: 16, SemiSort: true}
	p := NewEnginePool[uint32](cfg)
	ctx := context.Background()

	wantBFS, err := BFS[uint32](directed, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantSSSP, err := SSSP[uint32](weighted, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantCC, err := CC[uint32](undirected, cfg)
	if err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 2; round++ {
		gotBFS, err := p.BFS(ctx, directed, 0)
		if err != nil {
			t.Fatal(err)
		}
		for v := range wantBFS.Level {
			if gotBFS.Level[v] != wantBFS.Level[v] {
				t.Fatalf("round %d: level[%d] = %d, want %d", round, v, gotBFS.Level[v], wantBFS.Level[v])
			}
		}
		gotSSSP, err := p.SSSP(ctx, weighted, 0)
		if err != nil {
			t.Fatal(err)
		}
		for v := range wantSSSP.Dist {
			if gotSSSP.Dist[v] != wantSSSP.Dist[v] {
				t.Fatalf("round %d: dist[%d] = %d, want %d", round, v, gotSSSP.Dist[v], wantSSSP.Dist[v])
			}
		}
		gotCC, err := p.CC(ctx, undirected)
		if err != nil {
			t.Fatal(err)
		}
		for v := range wantCC.ID {
			if gotCC.ID[v] != wantCC.ID[v] {
				t.Fatalf("round %d: id[%d] = %d, want %d", round, v, gotCC.ID[v], wantCC.ID[v])
			}
		}
	}
	if reused, total := p.Reuses(); total != 6 || reused < 3 {
		t.Fatalf("reuses = %d/%d, want >= 3 of 6 served from the free list", reused, total)
	}
}

// TestEnginePoolRecyclesAfterAbort pins the reset contract: resources
// recycled from an aborted run (non-empty queues, buffered outboxes, stale
// prefetch sessions) must not perturb the next traversal.
func TestEnginePoolRecyclesAfterAbort(t *testing.T) {
	directed, _, _ := poolTestGraphs(t)
	p := NewEnginePool[uint32](Config{Workers: 8})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.BFS(ctx, directed, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("aborted run err = %v, want context.Canceled", err)
	}
	if p.Idle() != 1 {
		t.Fatalf("idle = %d after aborted run, want 1", p.Idle())
	}

	got, err := p.BFS(context.Background(), directed, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := BFS[uint32](directed, 0, p.Config())
	if err != nil {
		t.Fatal(err)
	}
	for v := range want.Level {
		if got.Level[v] != want.Level[v] {
			t.Fatalf("level[%d] = %d after recycle, want %d", v, got.Level[v], want.Level[v])
		}
	}
}

// TestEnginePoolConcurrent exercises many simultaneous traversals on one
// pool, each with its own resource set (run with -race in CI).
func TestEnginePoolConcurrent(t *testing.T) {
	directed, _, _ := poolTestGraphs(t)
	want, err := BFS[uint32](directed, 0, Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	p := NewEnginePool[uint32](Config{Workers: 8})
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for q := 0; q < 16; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := p.BFS(context.Background(), directed, 0)
			if err != nil {
				errs <- err
				return
			}
			for v := range want.Level {
				if got.Level[v] != want.Level[v] {
					errs <- errors.New("concurrent pool run diverged from standalone BFS")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
