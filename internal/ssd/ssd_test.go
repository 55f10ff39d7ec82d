package ssd

import (
	"bytes"
	"testing"
	"time"
)

func fastProfile(channels int) Profile {
	return Profile{
		Name:         "test",
		Channels:     channels,
		ReadLatency:  200 * time.Microsecond,
		WriteLatency: 400 * time.Microsecond,
	}
}

func TestMemBackingReadWrite(t *testing.T) {
	m := &MemBacking{}
	if _, err := m.WriteAt([]byte("hello"), 3); err != nil {
		t.Fatal(err)
	}
	if m.Size() != 8 {
		t.Fatalf("size = %d, want 8", m.Size())
	}
	buf := make([]byte, 5)
	if _, err := m.ReadAt(buf, 3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte("hello")) {
		t.Fatalf("read %q", buf)
	}
}

func TestMemBackingErrors(t *testing.T) {
	m := &MemBacking{Data: make([]byte, 10)}
	if _, err := m.ReadAt(make([]byte, 4), 8); err == nil {
		t.Fatal("short read did not error")
	}
	if _, err := m.ReadAt(make([]byte, 4), -1); err == nil {
		t.Fatal("negative offset did not error")
	}
	if _, err := m.WriteAt([]byte("x"), -1); err == nil {
		t.Fatal("negative write offset did not error")
	}
}

func TestDeviceReadWriteRoundTrip(t *testing.T) {
	d := New(fastProfile(4), &MemBacking{})
	data := []byte("semi-external")
	if _, err := d.WriteAt(data, 100); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	if _, err := d.ReadAt(buf, 100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatalf("read %q, want %q", buf, data)
	}
	st := d.Stats()
	if st.Reads != 1 || st.Writes != 1 || st.BytesRead != uint64(len(data)) {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDeviceChargesLatency(t *testing.T) {
	p := fastProfile(1)
	p.ReadLatency = 2 * time.Millisecond
	d := New(p, &MemBacking{Data: make([]byte, 64)})
	start := time.Now()
	const ops = 5
	buf := make([]byte, 8)
	for i := 0; i < ops; i++ {
		if _, err := d.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed < ops*p.ReadLatency {
		t.Fatalf("5 serialized reads took %v, want >= %v", elapsed, ops*p.ReadLatency)
	}
}

func TestDeviceBoundsConcurrency(t *testing.T) {
	// With 2 channels and 20ms service, 8 concurrent 1-op readers need
	// ceil(8/2)*20ms = 80ms; unlimited concurrency would need ~20ms.
	p := Profile{Name: "t", Channels: 2, ReadLatency: 20 * time.Millisecond}
	d := New(p, &MemBacking{Data: make([]byte, 64)})
	start := time.Now()
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			buf := make([]byte, 8)
			d.ReadAt(buf, 0)
			done <- struct{}{}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if elapsed := time.Since(start); elapsed < 75*time.Millisecond {
		t.Fatalf("8 reads on 2 channels took %v, want >= ~80ms", elapsed)
	}
}

func TestProfileOrdering(t *testing.T) {
	// The paper's device ordering must hold in the model: FusionIO fastest.
	// A device's modelled ceiling — where Figure 1's curve flattens — is its
	// channels over its read latency, so ordering both factors orders it.
	for i := 1; i < len(Profiles); i++ {
		fast, slow := Profiles[i-1], Profiles[i]
		if fast.Channels <= slow.Channels {
			t.Fatalf("%s has %d channels, %s %d: device IOPS ordering violated", fast.Name, fast.Channels, slow.Name, slow.Channels)
		}
		if fast.ReadLatency >= slow.ReadLatency {
			t.Fatalf("%s reads in %v, %s in %v: device latency ordering violated", fast.Name, fast.ReadLatency, slow.Name, slow.ReadLatency)
		}
	}
	for _, p := range Profiles {
		if p.WriteLatency <= p.ReadLatency {
			t.Fatalf("%s: writes must cost more than reads", p.Name)
		}
	}
}

func TestProfileByName(t *testing.T) {
	p, err := ProfileByName("Intel")
	if err != nil || p.Name != "Intel" {
		t.Fatalf("ProfileByName(Intel) = %+v, %v", p, err)
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Fatal("unknown profile did not error")
	}
}

func TestIOPSRisesWithThreadsThenSaturates(t *testing.T) {
	// Figure 1's shape: more threads -> more IOPS, flattening at the
	// device's parallelism.
	p := Profile{Name: "t", Channels: 4, ReadLatency: 1 * time.Millisecond}
	d := New(p, &MemBacking{Data: make([]byte, 1<<16)})
	const dur = 150 * time.Millisecond
	one := MeasureReadIOPS(d, 1, 512, dur, 1)
	four := MeasureReadIOPS(d, 4, 512, dur, 2)
	sixteen := MeasureReadIOPS(d, 16, 512, dur, 3)
	if one <= 0 {
		t.Fatal("no ops measured")
	}
	if four < one*1.5 {
		t.Fatalf("IOPS did not rise with threads: 1->%f, 4->%f", one, four)
	}
	// Saturation: 16 threads cannot exceed the 4-channel ceiling by much.
	if sixteen > four*2 {
		t.Fatalf("IOPS did not saturate: 4->%f, 16->%f (4 channels at 1 ms: ceiling 4000)",
			four, sixteen)
	}
}

func TestMeasureReadIOPSDegenerate(t *testing.T) {
	d := New(fastProfile(2), &MemBacking{Data: make([]byte, 16)})
	if MeasureReadIOPS(d, 0, 8, time.Millisecond, 1) != 0 {
		t.Fatal("0 threads should give 0 IOPS")
	}
	if MeasureReadIOPS(d, 1, 0, time.Millisecond, 1) != 0 {
		t.Fatal("0-byte reads should give 0 IOPS")
	}
	if MeasureReadIOPS(d, 1, 64, time.Millisecond, 1) != 0 {
		t.Fatal("read larger than device should give 0 IOPS")
	}
}

func TestBandwidthTermIncreasesLargeReadCost(t *testing.T) {
	p := Profile{Name: "t", Channels: 1, ReadLatency: time.Microsecond, BytesPerSec: 1 << 20}
	d := New(p, &MemBacking{Data: make([]byte, 1<<20)})
	start := time.Now()
	buf := make([]byte, 1<<19) // 512 KiB at 1 MiB/s -> ~500ms
	if _, err := d.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 400*time.Millisecond {
		t.Fatalf("large read took %v, want >= ~500ms of bandwidth charge", elapsed)
	}
}

// TestStatsChargeModelledTime: a device sums the service time its model
// charged each operation — latency plus the bandwidth term, no queueing — and
// Add sums those across devices the way it sums counters.
func TestStatsChargeModelledTime(t *testing.T) {
	p := fastProfile(3)
	p.BytesPerSec = 1 << 20
	d := New(p, &MemBacking{Data: make([]byte, 4096)})
	if d.Channels() != 3 {
		t.Fatalf("Channels() = %d, want 3", d.Channels())
	}
	buf := make([]byte, 1024)
	for range 2 {
		if _, err := d.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	transfer := time.Duration(1024 * int64(time.Second) / p.BytesPerSec)
	st := d.Stats()
	if want := 2 * (p.ReadLatency + transfer); st.ReadTime != want {
		t.Errorf("ReadTime = %v, want %v", st.ReadTime, want)
	}
	if want := p.WriteLatency + transfer; st.WriteTime != want {
		t.Errorf("WriteTime = %v, want %v", st.WriteTime, want)
	}
	sum := st
	sum.Add(Stats{Reads: 1, ReadTime: time.Millisecond, WriteTime: time.Second, MaxReadBytes: 1, PeakReads: 9})
	if sum.Reads != 3 || sum.ReadTime != st.ReadTime+time.Millisecond || sum.WriteTime != st.WriteTime+time.Second ||
		sum.MaxReadBytes != 1024 || sum.PeakReads != 9 {
		t.Errorf("Add: %+v", sum)
	}
}
