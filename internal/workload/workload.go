// Package workload drives closed-loop client load against a storage
// client of the ring and measures throughput and latency. It reproduces the paper's load-generation
// setup: dedicated reader and writer processes per server, each emulating
// many clients by keeping several operations in flight.
package workload

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
	"repro/internal/tag"
	"repro/internal/wire"
)

// Storage is the minimal client interface the load runs against
// (internal/client and the atomicstore façade satisfy it).
type Storage interface {
	// Read returns the current value and its version tag.
	Read(ctx context.Context, object wire.ObjectID) ([]byte, tag.Tag, error)
	// Write stores a value, returning the tag it was ordered at.
	Write(ctx context.Context, object wire.ObjectID, value []byte) (tag.Tag, error)
}

// Config describes one load run.
type Config struct {
	// Readers and Writers are the storage clients to drive; each entry
	// runs Concurrency goroutines.
	Readers []Storage
	Writers []Storage
	// Concurrency is the number of outstanding operations per client.
	// Zero means 4.
	Concurrency int
	// Object is the register to hammer.
	Object wire.ObjectID
	// ValueBytes sizes written values. Zero means 1024.
	ValueBytes int
	// Duration is the measured window. Zero means 1s.
	Duration time.Duration
	// Warmup runs load without recording first. Zero means 100ms.
	Warmup time.Duration
}

func (c Config) withDefaults() Config {
	if c.Concurrency <= 0 {
		c.Concurrency = 4
	}
	if c.ValueBytes <= 0 {
		c.ValueBytes = 1024
	}
	if c.Duration <= 0 {
		c.Duration = time.Second
	}
	if c.Warmup <= 0 {
		c.Warmup = 100 * time.Millisecond
	}
	return c
}

// Result aggregates a run.
type Result struct {
	// ReadOps/WriteOps count completed operations in the window.
	ReadOps, WriteOps uint64
	// ReadMbps/WriteMbps are payload throughputs.
	ReadMbps, WriteMbps float64
	// ReadOpsPerSec/WriteOpsPerSec are completion rates.
	ReadOpsPerSec, WriteOpsPerSec float64
	// ReadLatency/WriteLatency summarize latencies.
	ReadLatency, WriteLatency stats.Summary
	// Errors counts failed operations (timeouts during crashes etc.).
	Errors uint64
}

// Run executes the workload and reports the measured window.
func Run(ctx context.Context, cfg Config) Result {
	cfg = cfg.withDefaults()
	var (
		readMeter, writeMeter stats.Meter
		readHist, writeHist   stats.Histogram
		errs                  atomic.Uint64
		recording             atomic.Bool
		seq                   atomic.Uint64
	)
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var wg sync.WaitGroup
	spawn := func(st Storage, isReader bool) {
		for i := 0; i < cfg.Concurrency; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for runCtx.Err() == nil {
					start := time.Now()
					var err error
					if isReader {
						_, _, err = st.Read(runCtx, cfg.Object)
					} else {
						v := makeValue(cfg.ValueBytes, seq.Add(1))
						_, err = st.Write(runCtx, cfg.Object, v)
					}
					if runCtx.Err() != nil {
						return
					}
					if err != nil {
						errs.Add(1)
						continue
					}
					if !recording.Load() {
						continue
					}
					lat := time.Since(start)
					if isReader {
						readMeter.Record(cfg.ValueBytes)
						readHist.Observe(lat)
					} else {
						writeMeter.Record(cfg.ValueBytes)
						writeHist.Observe(lat)
					}
				}
			}()
		}
	}
	for _, r := range cfg.Readers {
		spawn(r, true)
	}
	for _, w := range cfg.Writers {
		spawn(w, false)
	}

	sleepCtx(runCtx, cfg.Warmup)
	readMeter.Start()
	writeMeter.Start()
	recording.Store(true)
	sleepCtx(runCtx, cfg.Duration)
	recording.Store(false)
	readMeter.Stop()
	writeMeter.Stop()
	cancel()
	wg.Wait()

	return Result{
		ReadOps:        readMeter.Ops(),
		WriteOps:       writeMeter.Ops(),
		ReadMbps:       readMeter.Mbps(),
		WriteMbps:      writeMeter.Mbps(),
		ReadOpsPerSec:  readMeter.OpsPerSecond(),
		WriteOpsPerSec: writeMeter.OpsPerSecond(),
		ReadLatency:    readHist.Snapshot(),
		WriteLatency:   writeHist.Snapshot(),
		Errors:         errs.Load(),
	}
}

// makeValue builds a unique value of the given size: a printable header
// with the sequence number, zero-padded.
func makeValue(size int, seq uint64) []byte {
	v := make([]byte, size)
	copy(v, fmt.Sprintf("v%016d|", seq))
	return v
}

// sleepCtx sleeps for d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
