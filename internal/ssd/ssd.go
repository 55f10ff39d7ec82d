// Package ssd simulates the NAND-flash storage devices of the paper's
// semi-external experiments (§II-D, §IV-C). Physical FusionIO / Intel X25-M /
// Corsair P128 RAID-0 arrays are not available here, so the device model
// reproduces the two properties the paper's results rest on:
//
//  1. random reads are orders of magnitude slower than RAM but far faster
//     than rotating disk (per-op service latency in the 100 µs range), and
//  2. the device services multiple concurrent requests — random-read IOPS
//     rise as more threads issue requests and saturate at the device's
//     internal parallelism (Figure 1), which is why EM algorithms "must be
//     multithreaded in order to achieve maximum I/O performance".
//
// The model is a bounded pool of service channels plus a per-operation
// service time (latency + bytes/bandwidth). Saturated read IOPS equal
// Channels / ReadLatency, calibrated per profile to the paper's measured
// ceilings. Writes cost more than reads (flash asymmetry).
package ssd

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Profile describes a simulated flash configuration.
type Profile struct {
	Name string
	// Channels is the device's internal parallelism: the number of requests
	// serviced concurrently (flash packages x RAID members).
	Channels int
	// ReadLatency is the service time of one random read operation.
	ReadLatency time.Duration
	// WriteLatency is the service time of one write operation; flash writes
	// are more costly than reads.
	WriteLatency time.Duration
	// BytesPerSec models transfer bandwidth; large requests pay
	// size/BytesPerSec on top of the fixed latency. Zero disables the term.
	BytesPerSec int64
}

// The three configurations the paper tests (§IV-C), calibrated so the
// saturated random-read IOPS match the reported ceilings: FusionIO ~200k,
// Intel ~60k, Corsair ~30k. Single-thread IOPS (1/latency) are ordered the
// same way, as in Figure 1.
// Profile latencies are scaled 10x above the physical devices' (TimeScale)
// so each service time sits an order of magnitude above the Go runtime's
// sleep granularity; saturated IOPS are therefore 1/10 of the paper's
// ceilings (FusionIO ~200k -> 20k, Intel ~60k -> 6k, Corsair ~30k -> 3k)
// while relative ordering and the rise-then-saturate Figure 1 shape are
// unaffected.
var (
	// FusionIO: 4x 80GB SLC PCI-E cards, software RAID 0 (paper: ~200k IOPS).
	FusionIO = Profile{Name: "FusionIO", Channels: 20, ReadLatency: time.Millisecond,
		WriteLatency: 2500 * time.Microsecond, BytesPerSec: 700 << 20}
	// Intel: 4x 80GB X25-M MLC SATA SSDs, software RAID 0 (paper: ~60k IOPS).
	Intel = Profile{Name: "Intel", Channels: 12, ReadLatency: 2 * time.Millisecond,
		WriteLatency: 6 * time.Millisecond, BytesPerSec: 250 << 20}
	// Corsair: 4x 128GB P128 MLC SATA SSDs, software RAID 0 (paper: ~30k IOPS).
	Corsair = Profile{Name: "Corsair", Channels: 9, ReadLatency: 3 * time.Millisecond,
		WriteLatency: 9 * time.Millisecond, BytesPerSec: 200 << 20}
)

// TimeScale is the simulation's time dilation relative to the paper's
// hardware: simulated latencies are 10x the physical devices', so measured
// IOPS correspond to the paper's numbers divided by 10.
const TimeScale = 10

// Profiles lists the paper's three configurations, fastest first.
var Profiles = []Profile{FusionIO, Intel, Corsair}

// ProfileByName returns the named profile (case-sensitive) or an error.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("ssd: unknown profile %q (have FusionIO, Intel, Corsair)", name)
}

// Stats counts device traffic.
type Stats struct {
	Reads        uint64
	Writes       uint64
	BytesRead    uint64
	BytesWritten uint64
	// MaxReadBytes is the largest single read operation serviced, exposing
	// span coalescing in the layers above: k small adjacency reads merged
	// into one large ReadAt show up here as a multi-record span.
	MaxReadBytes uint64
	// PeakReads is the high-water count of concurrently in-flight read
	// operations (queued or occupying a service slot). Cross-worker span
	// dedup shows up here: workers that share one in-flight span instead of
	// issuing duplicate reads lower the peak at equal traversal concurrency.
	PeakReads uint64
}

// Add accumulates other into s: counters sum, MaxReadBytes takes the larger.
// This is the member roll-up RAID stripes and shard mounts report through.
func (s *Stats) Add(other Stats) {
	s.Reads += other.Reads
	s.Writes += other.Writes
	s.BytesRead += other.BytesRead
	s.BytesWritten += other.BytesWritten
	if other.MaxReadBytes > s.MaxReadBytes {
		s.MaxReadBytes = other.MaxReadBytes
	}
	if other.PeakReads > s.PeakReads {
		s.PeakReads = other.PeakReads
	}
}

// AvgReadBytes reports mean bytes per read operation (0 when no reads ran).
func (s Stats) AvgReadBytes() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.BytesRead) / float64(s.Reads)
}

// Device is a latency-simulating storage device wrapping a backing
// io.ReaderAt-style byte store. It implements io.ReaderAt and io.WriterAt.
// A zero TimeScale means 1.0 (real-time simulation).
type Device struct {
	profile Profile
	backing Backing
	// slots bounds in-flight operations at the device's channel count;
	// excess requests queue, which is what bends the IOPS curve flat.
	slots chan struct{}

	reads        atomic.Uint64
	writes       atomic.Uint64
	bytesRead    atomic.Uint64
	bytesWritten atomic.Uint64
	maxReadBytes atomic.Uint64
	inflight     atomic.Int64
	peakReads    atomic.Uint64
}

// Backing is the byte store behind a Device: a RAM buffer in tests and
// simulations, or a real file.
type Backing interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Size() int64
}

// MemBacking is an in-memory byte store. The simulation charges flash
// latency on every access, so RAM backing preserves the semi-external
// performance behaviour while keeping experiments self-contained.
type MemBacking struct{ Data []byte }

// ReadAt implements Backing.
func (m *MemBacking) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off > int64(len(m.Data)) {
		return 0, fmt.Errorf("ssd: read offset %d out of range (size %d)", off, len(m.Data))
	}
	n := copy(p, m.Data[off:])
	if n < len(p) {
		return n, errors.New("ssd: short read past end of device")
	}
	return n, nil
}

// WriteAt implements Backing, growing the buffer as needed.
func (m *MemBacking) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errors.New("ssd: negative write offset")
	}
	if end := off + int64(len(p)); end > int64(len(m.Data)) {
		grown := make([]byte, end)
		copy(grown, m.Data)
		m.Data = grown
	}
	return copy(m.Data[off:], p), nil
}

// Size implements Backing.
func (m *MemBacking) Size() int64 { return int64(len(m.Data)) }

// New creates a device with the given profile over the backing store.
func New(p Profile, backing Backing) *Device {
	if p.Channels <= 0 {
		p.Channels = 1
	}
	return &Device{
		profile: p,
		backing: backing,
		slots:   make(chan struct{}, p.Channels),
	}
}

// Profile returns the device's configuration.
func (d *Device) Profile() Profile { return d.profile }

// Stats returns a snapshot of traffic counters.
func (d *Device) Stats() Stats {
	return Stats{
		Reads:        d.reads.Load(),
		Writes:       d.writes.Load(),
		BytesRead:    d.bytesRead.Load(),
		BytesWritten: d.bytesWritten.Load(),
		MaxReadBytes: d.maxReadBytes.Load(),
		PeakReads:    d.peakReads.Load(),
	}
}

// Size reports the backing size in bytes.
func (d *Device) Size() int64 { return d.backing.Size() }

func (d *Device) serviceTime(base time.Duration, n int) time.Duration {
	t := base
	if d.profile.BytesPerSec > 0 {
		t += time.Duration(int64(n) * int64(time.Second) / d.profile.BytesPerSec)
	}
	return t
}

// occupy claims a service slot for dur, modelling one in-flight operation.
func (d *Device) occupy(dur time.Duration) {
	d.slots <- struct{}{}
	time.Sleep(dur)
	<-d.slots
}

// ReadAt reads len(p) bytes at off, charging one read operation's simulated
// latency. Implements io.ReaderAt.
func (d *Device) ReadAt(p []byte, off int64) (int, error) {
	for cur := uint64(d.inflight.Add(1)); ; {
		peak := d.peakReads.Load()
		if cur <= peak || d.peakReads.CompareAndSwap(peak, cur) {
			break
		}
	}
	d.occupy(d.serviceTime(d.profile.ReadLatency, len(p)))
	d.inflight.Add(-1)
	d.reads.Add(1)
	d.bytesRead.Add(uint64(len(p)))
	for n := uint64(len(p)); ; {
		cur := d.maxReadBytes.Load()
		if n <= cur || d.maxReadBytes.CompareAndSwap(cur, n) {
			break
		}
	}
	return d.backing.ReadAt(p, off)
}

// WriteAt writes len(p) bytes at off, charging one (more expensive) write
// operation. Implements io.WriterAt.
func (d *Device) WriteAt(p []byte, off int64) (int, error) {
	d.occupy(d.serviceTime(d.profile.WriteLatency, len(p)))
	d.writes.Add(1)
	d.bytesWritten.Add(uint64(len(p)))
	return d.backing.WriteAt(p, off)
}
