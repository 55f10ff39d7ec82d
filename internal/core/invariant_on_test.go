//go:build invariants

// Protocol-invariant tests for instrumented builds: every scenario here
// violates the ownership/termination protocol on purpose and must panic
// with a recognizable message. The mirror file invariant_off_test.go runs
// the same scenarios without the tag and asserts they stay silent — the
// assertions must cost nothing in production builds.

package core

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/invariant"
	"repro/internal/pq"
)

func TestInvariantsEnabled(t *testing.T) {
	if !invariant.Enabled {
		t.Fatal("built with -tags invariants but invariant.Enabled is false")
	}
}

// expectInvariantPanic runs fn and asserts it panics with an invariant
// violation mentioning substr.
func expectInvariantPanic(t *testing.T, substr string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected invariant panic containing %q, got none", substr)
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "invariant violation") || !strings.Contains(msg, substr) {
			t.Fatalf("panic %q does not look like an invariant violation containing %q", msg, substr)
		}
	}()
	fn()
}

// TestOwnerRuleViolationPanics runs a deliberately broken visitor that
// claims ownership of a vertex belonging to the other worker. Under
// -tags invariants AssertOwned must panic inside the visitor; the visitor
// recovers the panic itself (worker goroutines cannot be recovered from the
// test goroutine) and converts it to an error so the engine shuts down
// cleanly.
func TestOwnerRuleViolationPanics(t *testing.T) {
	var caught atomic.Pointer[string]
	visit := func(ctx *Ctx[uint32], it pq.Item) (err error) {
		defer func() {
			if r := recover(); r != nil {
				msg := fmt.Sprint(r)
				caught.Store(&msg)
				err = errors.New("owner rule violated")
			}
		}()
		// Claiming a vertex the other worker owns is always a violation.
		ctx.AssertOwned(notOwned(ctx, it))
		return nil
	}
	e := New[uint32](Config{Workers: 2}, visit)
	e.Start()
	e.Push(0, 0, 0)
	if _, err := e.Wait(); err == nil {
		t.Fatal("broken visitor completed without error under -tags invariants")
	}
	msg := caught.Load()
	if msg == nil {
		t.Fatal("AssertOwned did not panic for a non-owned vertex")
	}
	if !strings.Contains(*msg, "owner rule") {
		t.Fatalf("panic %q does not mention the owner rule", *msg)
	}
}

func TestTerminatorUnderflowPanics(t *testing.T) {
	tm := NewTerminator()
	if !tm.Release() { // drops the init token: count 1 -> 0, terminated
		t.Fatal("Release of an idle terminator did not report termination")
	}
	expectInvariantPanic(t, "terminator underflow", func() {
		tm.Finish() // 0 -> -1: a Finish without a matching Start
	})
}

func TestPoolDoubleReleasePanics(t *testing.T) {
	p := NewEnginePool[uint32](Config{Workers: 2})
	r := p.acquire()
	p.release(r)
	expectInvariantPanic(t, "released twice", func() {
		p.release(r)
	})
}

func TestPoolDirtyQueuePanics(t *testing.T) {
	cfg := Config{Workers: 2}
	cfg.normalize()
	r := newEngineRes[uint32](cfg)
	r.queues[0].push(pq.Item{Pri: 1, V: 7})
	expectInvariantPanic(t, "still holds", func() {
		r.assertPristine()
	})
}

func TestPoolResetRestoresPristine(t *testing.T) {
	cfg := Config{Workers: 2}
	cfg.normalize()
	r := newEngineRes[uint32](cfg)
	r.queues[0].push(pq.Item{Pri: 1, V: 7})
	r.queues[1].finish()
	// reset itself runs assertPristine under the tag; surviving it proves a
	// dirty, closed queue set is fully restored.
	r.reset()
}

// TestLostProposalPanics leaves the state a sender would that won the claim
// on labels[t] and then skipped the push: the traversal completes, but t's
// word holds a claim no visit ever applied.
func TestLostProposalPanics(t *testing.T) {
	g := randomDigraph(t, 8, 16, false, 1)
	labels := make([]uint64, g.NumVertices())
	initLabels[uint32](labels, nil)
	src := uint32(0)
	k := newKernelState[uint32](g, labels, nil, bfsStep, &src)
	k.applied[src] = 0
	k.assertQuiescent() // the seed was applied, nothing else was claimed
	labels[3] = 1
	expectInvariantPanic(t, "proposal filter", k.assertQuiescent)
}
