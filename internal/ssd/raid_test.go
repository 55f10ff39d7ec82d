package ssd

import (
	"bytes"
	"math/rand/v2"
	"os"
	"sync"
	"testing"
	"time"
)

func raidOver(t *testing.T, backing Backing, cards int, chunk int64) *RAID0 {
	t.Helper()
	r, err := NewRAID0Array(fastProfile(2), cards, chunk, backing)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRAID0Validation(t *testing.T) {
	back := &MemBacking{Data: make([]byte, 64)}
	if _, err := NewRAID0(nil, 16); err == nil {
		t.Fatal("empty device list accepted")
	}
	if _, err := NewRAID0([]*Device{New(fastProfile(1), back)}, 0); err == nil {
		t.Fatal("zero chunk accepted")
	}
	if _, err := NewRAID0([]*Device{nil}, 16); err == nil {
		t.Fatal("nil member accepted")
	}
	if _, err := NewRAID0Array(fastProfile(1), 0, 16, back); err == nil {
		t.Fatal("zero cards accepted")
	}
}

func TestRAID0ReadMatchesBacking(t *testing.T) {
	data := make([]byte, 1<<14)
	for i := range data {
		data[i] = byte(i * 131)
	}
	back := &MemBacking{Data: data}
	for _, cards := range []int{1, 2, 4} {
		r := raidOver(t, back, cards, 256)
		rng := rand.New(rand.NewPCG(7, uint64(cards)))
		for i := 0; i < 200; i++ {
			off := rng.Int64N(1 << 14)
			n := 1 + rng.IntN(1000) // spans multiple chunks
			if off+int64(n) > 1<<14 {
				n = int(int64(1<<14) - off)
			}
			buf := make([]byte, n)
			if _, err := r.ReadAt(buf, off); err != nil {
				t.Fatalf("cards=%d off=%d n=%d: %v", cards, off, n, err)
			}
			if !bytes.Equal(buf, data[off:off+int64(n)]) {
				t.Fatalf("cards=%d: mismatch at off=%d n=%d", cards, off, n)
			}
		}
	}
}

func TestRAID0WriteRoundTrip(t *testing.T) {
	back := &MemBacking{Data: make([]byte, 4096)}
	r := raidOver(t, back, 4, 64)
	payload := make([]byte, 700) // spans ~11 chunks
	for i := range payload {
		payload[i] = byte(i)
	}
	if _, err := r.WriteAt(payload, 100); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(payload))
	if _, err := r.ReadAt(buf, 100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("write/read mismatch across stripes")
	}
}

func TestRAID0SegmentsRouting(t *testing.T) {
	back := &MemBacking{Data: make([]byte, 4096)}
	r := raidOver(t, back, 4, 64)
	segs := r.segments(60, 200) // 60..260 spans chunks 0,1,2,3,4
	if len(segs) != 5 {
		t.Fatalf("segments = %d, want 5", len(segs))
	}
	wantDev := []int{0, 1, 2, 3, 0} // chunk 4 wraps to device 0
	for i, s := range segs {
		if s.dev != wantDev[i] {
			t.Fatalf("segment %d routed to device %d, want %d", i, s.dev, wantDev[i])
		}
	}
	if segs[0].lo != 0 || segs[0].hi != 4 { // bytes 60..64 in chunk 0
		t.Fatalf("first segment = [%d,%d)", segs[0].lo, segs[0].hi)
	}
	total := 0
	for _, s := range segs {
		total += s.hi - s.lo
	}
	if total != 200 {
		t.Fatalf("segments cover %d bytes, want 200", total)
	}
}

func TestRAID0StatsAggregation(t *testing.T) {
	back := &MemBacking{Data: make([]byte, 4096)}
	r := raidOver(t, back, 2, 64)
	buf := make([]byte, 128) // exactly 2 chunks -> 1 read per member
	if _, err := r.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Reads != 2 || st.BytesRead != 128 {
		t.Fatalf("stats = %+v", st)
	}
	if len(r.devices) != 2 {
		t.Fatalf("members = %d", len(r.devices))
	}
}

func TestRAID0ParallelismSpeedsUpStripedReads(t *testing.T) {
	// One slow channel per member: a 4-chunk read on 1 card is serialized
	// (4 x 20ms), on 4 cards it overlaps (~20ms).
	p := Profile{Name: "t", Channels: 1, ReadLatency: 20 * time.Millisecond}
	back := &MemBacking{Data: make([]byte, 4096)}
	timeRead := func(cards int) time.Duration {
		r, err := NewRAID0Array(p, cards, 64, back)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 256)
		start := time.Now()
		if _, err := r.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	one := timeRead(1)
	four := timeRead(4)
	if four > one/2 {
		t.Fatalf("striping did not parallelize: 1 card %v, 4 cards %v", one, four)
	}
}

func TestRAID0ErrorPropagates(t *testing.T) {
	back := &MemBacking{Data: make([]byte, 100)}
	r := raidOver(t, back, 2, 64)
	if _, err := r.ReadAt(make([]byte, 200), 0); err == nil {
		t.Fatal("read past end did not error")
	}
}

func TestRAID0ConcurrentReaders(t *testing.T) {
	data := make([]byte, 1<<13)
	for i := range data {
		data[i] = byte(i * 7)
	}
	r := raidOver(t, &MemBacking{Data: data}, 4, 128)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 3))
			buf := make([]byte, 300)
			for i := 0; i < 100; i++ {
				off := rng.Int64N(1<<13 - 300)
				if _, err := r.ReadAt(buf, off); err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if !bytes.Equal(buf, data[off:off+300]) {
					t.Errorf("mismatch at %d", off)
					return
				}
			}
		}(uint64(w))
	}
	wg.Wait()
}

func TestCardProfile(t *testing.T) {
	card := CardProfile(FusionIO, 4)
	if card.Channels != FusionIO.Channels/4 {
		t.Fatalf("card channels = %d", card.Channels)
	}
	if card.ReadLatency != FusionIO.ReadLatency {
		t.Fatal("card latency changed")
	}
	if card.BytesPerSec != FusionIO.BytesPerSec/4 {
		t.Fatalf("card bandwidth = %d", card.BytesPerSec)
	}
	// Degenerate: more cards than channels still yields a valid profile.
	tiny := CardProfile(Profile{Name: "x", Channels: 2, BytesPerSec: 3}, 8)
	if tiny.Channels != 1 || tiny.BytesPerSec < 1 {
		t.Fatalf("tiny card profile = %+v", tiny)
	}
}

func TestFileBacking(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "ssd-*.bin")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewFileBacking(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.WriteAt([]byte("hello world"), 5); err != nil {
		t.Fatal(err)
	}
	if b.Size() != 16 {
		t.Fatalf("size = %d, want 16", b.Size())
	}
	buf := make([]byte, 5)
	if _, err := b.ReadAt(buf, 11); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "world" {
		t.Fatalf("read %q", buf)
	}
	// A device over a file backing works end to end.
	dev := New(fastProfile(2), b)
	if _, err := dev.ReadAt(buf, 5); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Fatalf("device read %q", buf)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFileBacking(f); err == nil {
		t.Fatal("stat on closed file should error")
	}
}
