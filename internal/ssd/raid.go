package ssd

import (
	"fmt"
	"sync"
)

// RAID0 stripes reads and writes across several devices, the software RAID 0
// the paper builds all three of its flash configurations from ("4x 80GB
// FusionIO SLC, PCI-E cards in a software RAID 0 configuration"). Striping
// multiplies available I/O parallelism: a request's chunks land on different
// member devices and are serviced concurrently, which is how four SATA SSDs
// reach IOPS no single card delivers.
//
// Members address the same logical byte space (they share a backing in the
// simulation); RAID0 routes chunk c to member c mod len(devices) and issues
// the per-member segment reads concurrently.
type RAID0 struct {
	devices []*Device
	chunk   int64
}

// NewRAID0 builds a stripe set with the given chunk size over the member
// devices.
func NewRAID0(devices []*Device, chunk int64) (*RAID0, error) {
	if len(devices) == 0 {
		return nil, fmt.Errorf("ssd: RAID0 needs at least one device")
	}
	if chunk <= 0 {
		return nil, fmt.Errorf("ssd: RAID0 chunk size must be positive, got %d", chunk)
	}
	for i, d := range devices {
		if d == nil {
			return nil, fmt.Errorf("ssd: RAID0 member %d is nil", i)
		}
	}
	return &RAID0{devices: devices, chunk: chunk}, nil
}

// NewRAID0Array is a convenience constructor: `cards` member devices with the
// per-card profile, all over the shared backing.
func NewRAID0Array(perCard Profile, cards int, chunk int64, backing Backing) (*RAID0, error) {
	if cards <= 0 {
		return nil, fmt.Errorf("ssd: RAID0 needs at least one card, got %d", cards)
	}
	devices := make([]*Device, cards)
	for i := range devices {
		devices[i] = New(perCard, backing)
	}
	return NewRAID0(devices, chunk)
}

// Size implements the Sizer the semi-external cache requires.
func (r *RAID0) Size() int64 { return r.devices[0].Size() }

// Stats aggregates member counters.
func (r *RAID0) Stats() Stats {
	var total Stats
	for _, d := range r.devices {
		total.Add(d.Stats())
	}
	return total
}

type segment struct {
	dev    int
	off    int64 // logical offset
	lo, hi int   // slice of the caller's buffer
}

func (r *RAID0) segments(off int64, n int) []segment {
	var segs []segment
	pos := off
	done := 0
	for done < n {
		chunkIdx := pos / r.chunk
		inChunk := pos - chunkIdx*r.chunk
		take := int(r.chunk - inChunk)
		if take > n-done {
			take = n - done
		}
		segs = append(segs, segment{
			dev: int(chunkIdx % int64(len(r.devices))),
			off: pos,
			lo:  done,
			hi:  done + take,
		})
		pos += int64(take)
		done += take
	}
	return segs
}

// ReadAt implements io.ReaderAt, issuing per-member segment reads
// concurrently.
func (r *RAID0) ReadAt(p []byte, off int64) (int, error) {
	segs := r.segments(off, len(p))
	if len(segs) == 1 {
		s := segs[0]
		return r.devices[s.dev].ReadAt(p[s.lo:s.hi], s.off)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(segs))
	for i, s := range segs {
		wg.Add(1)
		go func(i int, s segment) {
			defer wg.Done()
			_, errs[i] = r.devices[s.dev].ReadAt(p[s.lo:s.hi], s.off)
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return len(p), nil
}

// WriteAt implements io.WriterAt with the same striping.
func (r *RAID0) WriteAt(p []byte, off int64) (int, error) {
	segs := r.segments(off, len(p))
	if len(segs) == 1 {
		s := segs[0]
		return r.devices[s.dev].WriteAt(p[s.lo:s.hi], s.off)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(segs))
	for i, s := range segs {
		wg.Add(1)
		go func(i int, s segment) {
			defer wg.Done()
			_, errs[i] = r.devices[s.dev].WriteAt(p[s.lo:s.hi], s.off)
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return len(p), nil
}

// CardProfile derives a single-member profile from an aggregate array
// profile: 1/cards of the channels (minimum 1), same latencies. Useful for
// stripe-width ablations where the aggregate parallelism should stay fixed.
func CardProfile(aggregate Profile, cards int) Profile {
	p := aggregate
	p.Name = fmt.Sprintf("%s/card", aggregate.Name)
	p.Channels = aggregate.Channels / cards
	if p.Channels < 1 {
		p.Channels = 1
	}
	if p.BytesPerSec > 0 {
		p.BytesPerSec = aggregate.BytesPerSec / int64(cards)
		if p.BytesPerSec < 1 {
			p.BytesPerSec = 1
		}
	}
	return p
}
