package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sem"
	"repro/internal/ssd"
)

// Tracing is done from outside the program: the benchmark wraps the public
// seams (a sem.Store above and below the block cache) and times its own calls
// into each layer. Spans stay in memory until the run ends; -trace-out writes
// them as one JSON object per line: name, start and end in ns since the run's
// epoch, and the id of the query span that caused them.

// span is one timed query or request; the spans of the reads it caused carry
// its ID as their parent.
type span struct {
	name       string
	id, parent int32
	start, end int64
}

// readSpan is one ReadAt at a seam, kept compact because a semi-external
// traversal issues hundreds of thousands of them per second.
type readSpan struct {
	start  int64
	dur    uint32 // ns, saturating (no single read takes 4 s)
	parent int32
}

// recorder collects the spans of a traced run.
type recorder struct {
	epoch time.Time
	cur   atomic.Int32 // id of the query the batch runner is executing

	mu     sync.Mutex
	spans  []span
	stores []*timedStore
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

func (r *recorder) add(name string, id, parent int32, start, end time.Time) {
	r.mu.Lock()
	r.spans = append(r.spans, span{name, id, parent, r.since(start), r.since(end)})
	r.mu.Unlock()
}

// writeTo writes every span as a JSON line. It is called once the run is over
// and nothing records any more, so it takes no lock.
func (r *recorder) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range r.spans {
		fmt.Fprintf(w, `{"name":%q,"id":%d,"parent":%d,"start_ns":%d,"end_ns":%d}`+"\n", s.name, s.id, s.parent, s.start, s.end)
	}
	for _, t := range r.stores {
		for _, chunk := range t.chunks {
			for _, s := range chunk {
				fmt.Fprintf(w, `{"name":%q,"parent":%d,"start_ns":%d,"end_ns":%d}`+"\n", t.name, s.parent, s.start, s.start+int64(s.dur))
			}
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// sizedStore is what both seams carry: positional reads plus the total size
// the block cache needs to clamp its last block.
type sizedStore interface {
	sem.Store
	sem.Sizer
}

// timedStore is the decorator placed at a seam. It records one span per
// ReadAt, and counts calls, bytes and time so that ratios are measured where
// the work happens. When profile is set (the seam directly above an
// ssd.Device) it also sums the service time the device model charges, which
// separates modelled time from slot queueing and sleep overshoot.
type timedStore struct {
	inner   sizedStore
	name    string
	rec     *recorder
	profile *ssd.Profile

	calls   atomic.Uint64
	bytes   atomic.Uint64
	waitNs  atomic.Int64
	modelNs atomic.Int64

	mu     sync.Mutex
	chunks [][]readSpan
}

// spanChunk is the allocation unit of a seam's span list: growing by fixed
// chunks never copies spans already recorded.
const spanChunk = 1 << 18

// newTimedStore wraps inner at the named seam and registers the decorator
// with rec so its spans are written out with the rest.
func newTimedStore(rec *recorder, name string, inner sizedStore, profile *ssd.Profile) *timedStore {
	t := &timedStore{inner: inner, name: name, rec: rec, profile: profile}
	rec.mu.Lock()
	rec.stores = append(rec.stores, t)
	rec.mu.Unlock()
	return t
}

func (t *timedStore) Size() int64 { return t.inner.Size() }

func (t *timedStore) ReadAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := t.inner.ReadAt(p, off)
	dur := time.Since(start)
	t.calls.Add(1)
	t.bytes.Add(uint64(len(p)))
	t.waitNs.Add(int64(dur))
	if t.profile != nil {
		t.modelNs.Add(int64(modelledRead(*t.profile, len(p))))
	}
	s := readSpan{start: t.rec.since(start), dur: uint32(min(int64(dur), 1<<32-1)), parent: t.rec.cur.Load()}
	t.mu.Lock()
	if k := len(t.chunks); k == 0 || len(t.chunks[k-1]) == spanChunk {
		t.chunks = append(t.chunks, make([]readSpan, 0, spanChunk))
	}
	k := len(t.chunks) - 1
	t.chunks[k] = append(t.chunks[k], s)
	t.mu.Unlock()
	return n, err
}

// seamCounts is a snapshot of a decorator's sums.
type seamCounts struct {
	calls, bytes uint64
	wait, model  time.Duration
}

// counts snapshots the decorator; a nil decorator (an untraced mount, or a
// seam the mount does not have) counts nothing.
func (t *timedStore) counts() seamCounts {
	if t == nil {
		return seamCounts{}
	}
	return seamCounts{t.calls.Load(), t.bytes.Load(), time.Duration(t.waitNs.Load()), time.Duration(t.modelNs.Load())}
}

func (a seamCounts) minus(b seamCounts) seamCounts {
	return seamCounts{a.calls - b.calls, a.bytes - b.bytes, a.wait - b.wait, a.model - b.model}
}

// modelledRead is the service time ssd.Device charges one read of n bytes.
func modelledRead(p ssd.Profile, n int) time.Duration {
	d := p.ReadLatency
	if p.BytesPerSec > 0 {
		d += time.Duration(int64(n) * int64(time.Second) / p.BytesPerSec)
	}
	return d
}
