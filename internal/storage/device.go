// Package storage provides the backend storage substrate PRISMA sits on:
// an analytically modeled block device with bounded internal parallelism
// (standing in for the paper's Intel SSD DC P4600 + XFS node), a real
// directory-backed backend for live runs, an LRU page cache, and fault
// injection wrappers for failure testing.
package storage

import (
	"fmt"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/conc"
	"github.com/dsrhaslab/prisma-go/internal/metrics"
)

// DeviceSpec parameterizes the analytic device model.
type DeviceSpec struct {
	// Name identifies the device in logs and tables.
	Name string
	// BaseLatency is the fixed per-request cost (submission, seek, FTL,
	// NAND read) independent of transfer size.
	BaseLatency time.Duration
	// BytesPerSecond is the per-channel transfer bandwidth.
	BytesPerSecond float64
	// Channels is the device's internal parallelism: at most this many
	// requests are serviced concurrently; excess requests queue FIFO.
	Channels int
}

// Validate reports whether the spec is self-consistent.
func (s DeviceSpec) Validate() error {
	if s.BaseLatency < 0 {
		return fmt.Errorf("storage: negative base latency %v", s.BaseLatency)
	}
	if s.BytesPerSecond <= 0 {
		return fmt.Errorf("storage: non-positive bandwidth %v", s.BytesPerSecond)
	}
	if s.Channels < 1 {
		return fmt.Errorf("storage: device needs >= 1 channel, got %d", s.Channels)
	}
	return nil
}

// ServiceTime reports the in-channel service duration for a transfer of
// size bytes (excluding queueing).
func (s DeviceSpec) ServiceTime(size int64) time.Duration {
	if size < 0 {
		size = 0
	}
	transfer := time.Duration(float64(size) / s.BytesPerSecond * float64(time.Second))
	return s.BaseLatency + transfer
}

// P4600 models the evaluation node's 1.6 TiB Intel SSD DC P4600 for the
// small-random-read pattern DL training produces through a filesystem:
// per-file read cost is dominated by a fixed syscall+FTL+NAND latency plus
// transfer. Channels bounds the useful concurrency, which is what makes a
// handful of prefetching producers enough to saturate the device (Fig. 3).
func P4600() DeviceSpec {
	return DeviceSpec{
		Name:           "intel-p4600",
		BaseLatency:    260 * time.Microsecond,
		BytesPerSecond: 1.6e9, // per-channel; 8 channels ≈ 3.2 GB/s ceiling at depth
		Channels:       8,
	}
}

// SATAHDD models a 7.2k SATA disk (for ablations contrasting media).
func SATAHDD() DeviceSpec {
	return DeviceSpec{
		Name:           "sata-hdd",
		BaseLatency:    8 * time.Millisecond,
		BytesPerSecond: 180e6,
		Channels:       1,
	}
}

// NFSShare models a contended remote share (high latency, moderate
// parallelism) for multi-tenant experiments.
func NFSShare() DeviceSpec {
	return DeviceSpec{
		Name:           "nfs-share",
		BaseLatency:    1500 * time.Microsecond,
		BytesPerSecond: 400e6,
		Channels:       4,
	}
}

// DeviceStats is a snapshot of device activity.
type DeviceStats struct {
	Reads     int64
	Bytes     int64
	BusyTime  time.Duration // summed in-channel service time
	QueueTime time.Duration // summed time spent waiting for a channel
}

// Device is the analytic device model. Read blocks the calling thread (of
// the owning conc.Env) for queueing plus service time. It is safe for
// concurrent use.
type Device struct {
	env  conc.Env
	spec DeviceSpec

	mu          conc.Mutex
	channelFree []time.Duration // absolute virtual time each channel frees up

	reads   *metrics.Counter
	bytes   *metrics.Counter
	busyNS  *metrics.Counter
	queueNS *metrics.Counter
}

// NewDevice builds a device from spec under env.
func NewDevice(env conc.Env, spec DeviceSpec) (*Device, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Device{
		env:         env,
		spec:        spec,
		mu:          env.NewMutex(),
		channelFree: make([]time.Duration, spec.Channels),
		reads:       metrics.NewCounter(env),
		bytes:       metrics.NewCounter(env),
		busyNS:      metrics.NewCounter(env),
		queueNS:     metrics.NewCounter(env),
	}, nil
}

// Spec returns the device parameters.
func (d *Device) Spec() DeviceSpec { return d.spec }

// Read services a read request of the given size, blocking for queueing
// plus service time. It returns the total time the request spent at the
// device.
func (d *Device) Read(size int64) time.Duration { return d.request(size) }

// Write services a write request of the given size (used by tiering
// promotions); the cost model matches reads.
func (d *Device) Write(size int64) time.Duration { return d.request(size) }

// request runs one transfer through the channel model.
func (d *Device) request(size int64) time.Duration {
	if size < 0 {
		size = 0
	}
	now := d.env.Now()
	svc := d.spec.ServiceTime(size)

	d.mu.Lock()
	// Pick the earliest-free channel (FIFO among arrivals: callers hold the
	// mutex only instantaneously, so channel claims happen in arrival order).
	best := 0
	for i, free := range d.channelFree {
		if free < d.channelFree[best] {
			best = i
		}
	}
	start := now
	if d.channelFree[best] > start {
		start = d.channelFree[best]
	}
	finish := start + svc
	d.channelFree[best] = finish
	d.mu.Unlock()

	queue := start - now
	d.reads.Inc()
	d.bytes.Add(size)
	d.busyNS.Add(int64(svc))
	d.queueNS.Add(int64(queue))
	d.env.Sleep(finish - now)
	return finish - now
}

// Stats snapshots cumulative device activity.
func (d *Device) Stats() DeviceStats {
	return DeviceStats{
		Reads:     d.reads.Value(),
		Bytes:     d.bytes.Value(),
		BusyTime:  time.Duration(d.busyNS.Value()),
		QueueTime: time.Duration(d.queueNS.Value()),
	}
}
