//go:build !invariants

// Mirror of invariant_on_test.go for production builds: the same
// deliberately broken scenarios must run to completion without panicking,
// proving the assertions compile away and cost nothing when the tag is off.

package core

import (
	"testing"

	"repro/internal/invariant"
	"repro/internal/pq"
)

func TestInvariantsDisabled(t *testing.T) {
	if invariant.Enabled {
		t.Fatal("built without -tags invariants but invariant.Enabled is true")
	}
}

// TestOwnerRuleViolationSilent runs the same broken visitor as
// TestOwnerRuleViolationPanics: without the tag AssertOwned is a no-op and
// the traversal completes normally.
func TestOwnerRuleViolationSilent(t *testing.T) {
	visit := func(ctx *Ctx[uint32], it pq.Item) error {
		ctx.AssertOwned(notOwned(ctx, it)) // not owned; must be a no-op
		return nil
	}
	e := New[uint32](Config{Workers: 2}, visit)
	e.Start()
	e.Push(0, 0, 0)
	if _, err := e.Wait(); err != nil {
		t.Fatalf("AssertOwned had an effect without -tags invariants: %v", err)
	}
}

func TestTerminatorUnderflowSilent(t *testing.T) {
	tm := NewTerminator()
	if !tm.Release() {
		t.Fatal("Release of an idle terminator did not report termination")
	}
	if tm.Finish() { // 0 -> -1: silently tolerated without the tag
		t.Fatal("underflowed terminator reported termination")
	}
	if tm.Outstanding() != -1 {
		t.Fatalf("outstanding = %d, want -1 after unchecked underflow", tm.Outstanding())
	}
}

func TestPoolDoubleReleaseSilent(t *testing.T) {
	p := NewEnginePool[uint32](Config{Workers: 2})
	r := p.acquire()
	p.release(r)
	p.release(r) // no double-release detection without the tag
	if got := p.Idle(); got != 2 {
		t.Fatalf("free list holds %d sets, want 2 (both releases accepted)", got)
	}
}
