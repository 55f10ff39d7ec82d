package fixture

import "time"

//lint:hotpath
func hotVisit(labels []uint64, v uint64) time.Time {
	t := time.Now()                 // violation: time.Now
	seen := make(map[uint64]bool)   // violation: map make
	extra := map[string]int{"x": 1} // violation: map composite literal
	seen[v] = true
	labels[v] = uint64(extra["x"])
	return t
}

// coldVisit does all the same things without the annotation: no diagnostics.
func coldVisit(labels []uint64, v uint64) time.Time {
	t := time.Now()
	seen := make(map[uint64]bool)
	extra := map[string]int{"x": 1}
	seen[v] = true
	labels[v] = uint64(extra["x"])
	return t
}

//lint:hotpath
func hotClean(labels []uint64, v uint64) {
	// Slices and arithmetic are fine on the hot path.
	buf := make([]uint64, 0, 4)
	buf = append(buf, v)
	labels[v] = buf[0]
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
