package fixture

import (
	"context"
	"errors"
)

var errBadKind = errors.New("bad kind")

// Config has normalize coverage for Workers only: Depth is a violation.
// Ctx is context.Context and therefore exempt; the unexported field is
// ignored.
type Config struct {
	Workers int
	Depth   int
	Ctx     context.Context
	secret  int
}

func (c *Config) normalize() {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	c.secret = 0
}

// OrphanConfig has no validator at all: violation on the type.
type OrphanConfig struct {
	Size int
}

// TunedConfig is fully validated via a package function taking it as the
// first parameter: no diagnostics.
type TunedConfig struct {
	Gap   int
	Batch int
}

func validate(c *TunedConfig) {
	if c.Gap < 0 {
		c.Gap = 0
	}
	if c.Batch <= 0 {
		c.Batch = 16
	}
}

// CountConfig matches the name pattern but is not struct-underlying:
// skipped entirely.
type CountConfig int

// ShardConfig mirrors the sem shard writer's config: a value-receiver
// Validate covers Shard and Shards, a pointer-receiver normalize covers
// Width — references from both receiver kinds pool. Replicas is touched by
// neither: violation.
type ShardConfig struct {
	Shard    int
	Shards   int
	Width    int
	Replicas int
}

func (c ShardConfig) Validate() bool {
	return c.Shards >= 1 && c.Shard >= 0 && c.Shard < c.Shards
}

func (c *ShardConfig) normalize() {
	if c.Width <= 0 {
		c.Width = 4096
	}
}

// PolicyConfig mirrors the sem cache-policy config: Validate copies the
// receiver and re-validates through normalize, which defaults the Kind
// string. Both methods reference Kind, so the struct is clean; Trace is
// referenced by neither: violation.
type PolicyConfig struct {
	Kind  string
	Trace bool
}

func (c *PolicyConfig) normalize() {
	if c.Kind == "" {
		c.Kind = "lru"
	}
}

func (c *PolicyConfig) Validate() error {
	cc := *c
	cc.normalize()
	if cc.Kind != "lru" && cc.Kind != "state" {
		return errBadKind
	}
	return nil
}

// EngineConfig is core.Config with the lint audit's winning seed: normalize
// lost the Alpha default. A caller that leaves Alpha zero gets a BFS driver
// that never switches bottom-up; every answer is still right, so no test
// fails. Alpha: violation.
type EngineConfig struct {
	Workers int
	Alpha   int
	Beta    int
}

func (c *EngineConfig) normalize() {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Beta <= 0 {
		c.Beta = 24
	}
}
