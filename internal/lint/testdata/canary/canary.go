// Package canary pins the compiled-code check of //lint:hotpath functions:
// each annotated function here is a case the check must report, a map or
// clock call in its code or no code at all, and Cold makes Hot's calls
// without the annotation. It lives under testdata so that ./... never
// builds it; the check names it.
package canary

import "time"

// Hot builds a map that never escapes (on the stack: no allocation test
// counts it) and reads the clock.
//
//lint:hotpath
func Hot(counts []uint64, v uint64) int64 {
	seen := map[uint64]bool{v: true}
	if seen[counts[v]] {
		counts[v]++
	}
	return time.Now().UnixNano()
}

// Cold is Hot without the annotation: its calls are in the listing, and the
// check must not report them.
func Cold(counts []uint64, v uint64) int64 {
	seen := map[uint64]bool{v: true}
	if seen[counts[v]] {
		counts[v]++
	}
	return time.Now().UnixNano()
}

type set map[uint64]struct{}

func newSet(v uint64) set { return set{v: {}} }

// HotInlined builds its map in an unannotated helper the compiler inlines
// into it: the map calls are in HotInlined's code.
//
//lint:hotpath
func HotInlined(counts []uint64, v uint64) {
	if _, ok := newSet(v)[counts[v]]; ok {
		counts[v]++
	}
}

// Never is a generic function nothing instantiates, so the compiler emits
// no code for it: the check must report it missing.
//
//lint:hotpath
func Never[T any](x T) T { return x }
