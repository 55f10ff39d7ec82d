package fixture

import (
	"fmt"
	"time"
)

//lint:hotpath
func hotVisit(labels []uint64, v uint64) string {
	s := fmt.Sprintf("v=%d", v)     // violation: fmt call
	t := time.Now()                 // violation: time.Now
	seen := make(map[uint64]bool)   // violation: map make
	extra := map[string]int{"x": 1} // violation: map composite literal
	f := func() { labels[v] = 1 }   // violation: closure allocation
	f()
	seen[v] = true
	_ = extra
	_ = t
	return s
}

// coldVisit does all the same things without the annotation: no diagnostics.
func coldVisit(labels []uint64, v uint64) string {
	s := fmt.Sprintf("v=%d", v)
	t := time.Now()
	seen := make(map[uint64]bool)
	f := func() { labels[v] = 1 }
	f()
	seen[v] = true
	_ = t
	return s
}

//lint:hotpath
func hotClean(labels []uint64, v uint64) {
	// Slices and arithmetic are fine on the hot path.
	buf := make([]uint64, 0, 4)
	buf = append(buf, v)
	labels[v] = buf[0]
}

//lint:hotpath
func hotGrow(vs []uint64) []uint64 {
	var out []uint64
	out = append(out, 0) // fine: not in a loop
	for _, v := range vs {
		out = append(out, v) // violation: uncapped growth per iteration
	}
	return out
}

// hotGrowHinted sizes the destination up front; the same loop stays quiet.
//
//lint:hotpath
func hotGrowHinted(vs []uint64) []uint64 {
	out := make([]uint64, 0, len(vs))
	for _, v := range vs {
		out = append(out, v)
	}
	return out
}

// hotGrowPregrown uses the cap() pre-grow idiom on a caller-owned slice.
//
//lint:hotpath
func hotGrowPregrown(dst, vs []uint64) []uint64 {
	if cap(dst)-len(dst) < len(vs) {
		grown := make([]uint64, len(dst), len(dst)+len(vs))
		copy(grown, dst)
		dst = grown
	}
	for _, v := range vs {
		dst = append(dst, v)
	}
	return dst
}

// coldGrow grows in a loop without the annotation: no diagnostics.
func coldGrow(vs []uint64) []uint64 {
	var out []uint64
	for _, v := range vs {
		out = append(out, v)
	}
	return out
}

// hotScanAlloc allocates a fresh slice every iteration of its scan loop, the
// per-vertex allocation storm the bottom-up rule exists for.
//
//lint:hotpath
func hotScanAlloc(vs []uint64) uint64 {
	var sum uint64
	for _, v := range vs {
		tmp := make([]uint64, 0, 4) // violation: slice make inside the loop
		tmp = append(tmp, v)
		sum += tmp[0]
	}
	return sum
}

// hotScanGuarded reallocates only on overflow behind a cap() guard — the
// grow-on-demand idiom — and stays quiet.
//
//lint:hotpath
func hotScanGuarded(dst, vs []uint64) []uint64 {
	for _, v := range vs {
		if len(dst) == cap(dst) {
			grown := make([]uint64, len(dst), 2*cap(dst)+1)
			copy(grown, dst)
			dst = grown
		}
		dst = append(dst, v)
	}
	return dst
}

// hotScanHoisted allocates once above the loop and reuses: quiet.
//
//lint:hotpath
func hotScanHoisted(vs []uint64) uint64 {
	tmp := make([]uint64, 0, 4)
	var sum uint64
	for _, v := range vs {
		tmp = append(tmp[:0], v)
		sum += tmp[0]
	}
	return sum
}

// coldScanAlloc makes per iteration without the annotation: no diagnostics.
func coldScanAlloc(vs []uint64) uint64 {
	var sum uint64
	for _, v := range vs {
		tmp := make([]uint64, 0, 4)
		tmp = append(tmp, v)
		sum += tmp[0]
	}
	return sum
}

// hotPush is core.Ctx.Push with the lint audit's winning seed: a map that
// never escapes is built on the stack, so an AllocsPerRun check counts
// nothing, yet building it makes every push about 40 % slower.
//
//lint:hotpath
func hotPush(counts []uint64, v uint64) {
	seen := map[uint64]bool{v: true} // violation: map composite literal
	counts[v]++
	_ = seen[v]
}
