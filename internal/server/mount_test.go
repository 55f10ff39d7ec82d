package server

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/sem"
)

// TestMountGraph checks the translation from a -graph spec to a server.Graph:
// the storage stack itself is internal/mount's and is tested there.
func TestMountGraph(t *testing.T) {
	g, err := gen.RMAT[uint32](8, 8, gen.RMATA, 5)
	if err != nil {
		t.Fatal(err)
	}
	write := func(path string, cfg sem.WriteConfig) {
		t.Helper()
		var buf bytes.Buffer
		if err := sem.Write(&buf, g, cfg); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	plain := filepath.Join(dir, "g.asg")
	write(plain, sem.WriteConfig{})
	sharded := filepath.Join(dir, "s.asg")
	for k := 0; k < 4; k++ {
		write(sem.ShardFileName(sharded, k), sem.WriteConfig{Shard: &sem.ShardConfig{Shard: k, Shards: 4}})
	}

	im, err := MountGraph(MountSpec{Name: "im", Path: plain}, MountOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if im.Storage != "im" || im.Adj == nil || im.Shards != 0 || im.Devices != nil || im.SEMGraphs != nil {
		t.Errorf("in-memory mount: %+v", im)
	}

	limit := &RateLimitConfig{Rate: 5}
	se, err := MountGraph(MountSpec{Name: "sem", Path: sharded, SEM: true, Profile: "Intel", Limit: limit}, MountOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if se.Storage != "sem" || se.Shards != 4 || len(se.Devices) != 4 || len(se.BlockCaches) != 4 || len(se.SEMGraphs) != 4 || se.RateLimit != limit {
		t.Errorf("sharded SEM mount: storage=%s shards=%d devices=%d caches=%d graphs=%d", se.Storage, se.Shards, len(se.Devices), len(se.BlockCaches), len(se.SEMGraphs))
	}
	if se.Devices[0].Profile().Name != "Intel" {
		t.Errorf("spec profile not applied: %s", se.Devices[0].Profile().Name)
	}

	hy, err := MountGraph(MountSpec{Name: "hy", Path: plain}, MountOptions{Direction: core.DirectionHybrid})
	if err != nil {
		t.Fatal(err)
	}
	if hy.Alpha <= 0 || hy.Beta <= 0 {
		t.Errorf("hybrid mount carries no thresholds: alpha=%d beta=%d", hy.Alpha, hy.Beta)
	}
	s := New(Config{Engine: core.Config{Workers: 4, Direction: core.DirectionHybrid}})
	if err := s.AddGraph(hy); err != nil {
		t.Errorf("AddGraph of a hybrid in-memory mount: %v", err)
	}

	if _, err := MountGraph(MountSpec{Name: "x", Path: plain, SEM: true, Profile: "FloppyDisk"}, MountOptions{}); err == nil {
		t.Error("unknown profile mounted")
	}
	if _, err := MountGraph(MountSpec{Name: "x", Path: sharded, Shards: 3}, MountOptions{}); !errors.Is(err, sem.ErrShardSpec) {
		t.Errorf("3 of 4 shards: err = %v, want ErrShardSpec", err)
	}
	if _, err := MountGraph(MountSpec{Name: "x", Path: plain, SEM: true, Profile: "Intel"}, MountOptions{Direction: core.DirectionHybrid}); !errors.Is(err, core.ErrNoInEdges) {
		t.Errorf("hybrid over a SEM file without in-edges: err = %v, want ErrNoInEdges", err)
	}
}
