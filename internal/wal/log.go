package wal

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// SyncMode selects when staged records reach stable storage.
type SyncMode uint8

// SyncTrain, the only mode, gates every outgoing ring frame on a sync
// covering the records its envelopes staged: one fdatasync per frame
// train, shared across lanes that staged during the same pass.
// Acknowledged writes are durable at every server.
const SyncTrain SyncMode = 0

// Config configures one server's log. The zero value of every field
// but Dir and Lanes is usable.
type Config struct {
	// Dir is the log directory; empty disables the WAL entirely at the
	// layers above this package.
	Dir string
	// Lanes is the lane fanout, one segment sequence per lane. Fixed
	// at first open (recorded in the MANIFEST).
	Lanes int
	// Sync is the durability policy; Open rejects anything but
	// SyncTrain.
	Sync SyncMode
	// SegmentBytes rotates a lane to a fresh segment once the current
	// one exceeds this size. Default 64 MiB.
	SegmentBytes int64
	// MerkleRoots appends a chained batch-root record per sync, making
	// the log tamper-evident (verify offline with Verify).
	MerkleRoots bool
}

const (
	// defaultBatchBytes kicks a sync pass early once a lane has staged
	// this much (the group-commit accumulator, mirroring the transport's
	// MaxBatchBytes).
	defaultBatchBytes   = 256 << 10
	defaultSegmentBytes = 64 << 20
	// housekeepEvery flushes lanes that stopped sending.
	housekeepEvery = 100 * time.Millisecond
)

func (c Config) withDefaults() Config {
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = defaultSegmentBytes
	}
	return c
}

// Wait/lifecycle errors.
var (
	ErrClosed  = errors.New("wal: log closed")
	ErrAborted = errors.New("wal: wait aborted")
)

// Stats is a point-in-time snapshot of the log's counters.
type Stats struct {
	Appends     uint64 // records staged
	AppendBytes uint64 // framed bytes staged
	Batches     uint64 // non-empty lane flushes
	Syncs       uint64 // fdatasyncs that covered staged records
	SyncBytes   uint64 // bytes written by those flushes
	Rotations   uint64 // segment rotations
	Roots       uint64 // audit root records written
	Replayed    uint64 // data records replayed at open
	TornTails   uint64 // tails truncated at open (bad CRC / short record)
	Failed      bool   // a disk error stopped the log
}

// laneLog is one lane's staging buffer and open segment. Appends land
// in buf under mu; the syncer swaps buf out, writes and syncs outside
// the lock (appends continue into the spare), then publishes the new
// synced watermark. The file and segment bookkeeping are touched only
// by the syncer (or pre-Start, single-threaded).
type laneLog struct {
	mu     sync.Mutex
	buf    []byte
	spare  []byte
	leaves [][32]byte
	spareL [][32]byte
	staged uint64 // records staged, monotonic; the Append/WaitLane seq
	synced uint64 // records covered by the last successful flush
	waitc  chan struct{}

	lane     int
	f        *os.File
	seg      uint32
	segBytes int64
	segs     []uint32 // live segment indices, oldest first
	prevRoot [32]byte // audit chain link, syncer-confined
}

// Log is one server's write-ahead log. Append and WaitLane are safe
// for concurrent use; Open/Compact/Start/Close follow the lifecycle
// Open → (Compact per lane) → Start → Close|Kill.
type Log struct {
	cfg   Config
	lanes []laneLog

	reqc    chan struct{} // sync kick, capacity 1 (kicks coalesce)
	stopc   chan struct{}
	done    chan struct{}
	started atomic.Bool
	once    sync.Once

	failMu  sync.Mutex
	failErr error

	appends, appendBytes atomic.Uint64
	batches, syncs       atomic.Uint64
	syncBytes            atomic.Uint64
	rotations, roots     atomic.Uint64
	replayed, tornTails  atomic.Uint64
	closeErr             error
}

// ReplayFn receives every data record of one lane in append order.
// The Record (and its Value) is owned by the callee.
type ReplayFn func(lane int, r *Record) error

// Open opens (or creates) the log directory and replays every lane
// before returning, delivering data records to replay (which may be
// nil to scan without delivering — torn tails are still repaired).
// Replay happens here, before the caller wires the log into a running
// server, which is what guarantees recovery replays before any ring
// adoption traffic. Corruption anywhere but the newest record of the
// newest segment of a lane is an error; a torn or corrupt tail is
// truncated away and counted in Stats.TornTails.
func Open(cfg Config, replay ReplayFn) (*Log, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("wal: Config.Dir required")
	}
	if cfg.Lanes <= 0 {
		return nil, errors.New("wal: Config.Lanes must be positive")
	}
	if cfg.Lanes > 1<<16-1 {
		return nil, fmt.Errorf("wal: %d lanes exceed the format limit", cfg.Lanes)
	}
	if cfg.Sync != SyncTrain {
		return nil, fmt.Errorf("wal: unknown sync mode %d (only SyncTrain exists)", cfg.Sync)
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	if err := loadManifest(cfg.Dir, cfg.Lanes); err != nil {
		return nil, err
	}
	l := &Log{
		cfg:   cfg,
		lanes: make([]laneLog, cfg.Lanes),
		reqc:  make(chan struct{}, 1),
		stopc: make(chan struct{}),
		done:  make(chan struct{}),
	}
	for i := range l.lanes {
		ll := &l.lanes[i]
		ll.lane = i
		ll.waitc = make(chan struct{})
		if err := l.openLane(ll, replay); err != nil {
			l.closeFiles()
			return nil, fmt.Errorf("wal: lane %d: %w", i, err)
		}
	}
	return l, nil
}

// openLane replays one lane's segments and leaves the newest open for
// appending, repaired of any torn tail.
func (l *Log) openLane(ll *laneLog, replay ReplayFn) error {
	segs, err := listSegments(l.cfg.Dir, ll.lane)
	if err != nil {
		return err
	}
	if len(segs) == 0 {
		f, err := createSegment(l.cfg.Dir, ll.lane, 0)
		if err != nil {
			return err
		}
		ll.f, ll.seg, ll.segBytes, ll.segs = f, 0, segHeaderSize, []uint32{0}
		return nil
	}
	ll.segs = segs
	for i, seg := range segs {
		last := i == len(segs)-1
		end, err := l.replaySegment(ll, seg, last, replay)
		if err != nil {
			return err
		}
		if last {
			path := segPath(l.cfg.Dir, ll.lane, seg)
			info, err := os.Stat(path)
			if err != nil {
				return err
			}
			if info.Size() > end {
				if err := os.Truncate(path, end); err != nil {
					return err
				}
			}
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				return err
			}
			if err := f.Sync(); err != nil { // make the repair durable
				f.Close()
				return err
			}
			ll.f, ll.seg, ll.segBytes = f, seg, end
		}
	}
	return nil
}

// replaySegment scans one segment, delivering data records, tracking
// the audit chain, and returning the offset of the first byte past the
// last intact record. Damage is repaired (and counted) only in the
// lane's newest segment; elsewhere it is corruption.
func (l *Log) replaySegment(ll *laneLog, seg uint32, last bool, replay ReplayFn) (int64, error) {
	path := segPath(l.cfg.Dir, ll.lane, seg)
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	if err := checkSegHeader(data, ll.lane, seg); err != nil {
		if !last {
			return 0, fmt.Errorf("segment %d: %w", seg, err)
		}
		// The newest segment can legitimately die mid-creation; any
		// record it might have held was never covered by a sync.
		l.tornTails.Add(1)
		if err := os.Remove(path); err != nil {
			return 0, err
		}
		f, err := createSegment(l.cfg.Dir, ll.lane, seg)
		if err != nil {
			return 0, err
		}
		f.Close()
		return segHeaderSize, nil
	}
	off := int64(segHeaderSize)
	for int(off) < len(data) {
		rec, n, err := decodeRecord(data[off:])
		if err != nil {
			if !last {
				return 0, fmt.Errorf("segment %d offset %d: %w", seg, off, err)
			}
			l.tornTails.Add(1)
			return off, nil
		}
		off += int64(n)
		if rec.Type == RecRoot {
			ll.prevRoot = rec.Root
			continue
		}
		l.replayed.Add(1)
		if replay != nil {
			if err := replay(ll.lane, &rec); err != nil {
				return 0, err
			}
		}
	}
	return off, nil
}

// Start launches the group-commit syncer. Call after any Compact.
func (l *Log) Start() {
	l.started.Store(true)
	go l.syncLoop()
}

// Append stages one record on a lane and returns its sequence number
// for WaitLane. The record's bytes (value included) are copied into
// the lane's staging buffer immediately: the caller's buffers — pooled
// or not — are never referenced after Append returns, and nothing
// reaches the OS until a sync pass writes the batch. Amortized zero
// allocations.
func (l *Log) Append(lane int, r *Record) uint64 {
	ll := &l.lanes[lane]
	ll.mu.Lock()
	start := len(ll.buf)
	ll.buf = appendRecord(ll.buf, r)
	if l.cfg.MerkleRoots {
		ll.leaves = append(ll.leaves, leafHash(ll.buf[start+frameHeaderSize:]))
	}
	ll.staged++
	seq := ll.staged
	size := len(ll.buf)
	ll.mu.Unlock()
	l.appends.Add(1)
	l.appendBytes.Add(uint64(size - start))
	if size >= defaultBatchBytes {
		l.kick()
	}
	return seq
}

// WaitLane blocks until a sync covers the lane's records up to seq (as
// returned by Append), kicking the group-commit pass. It returns
// ErrAborted when abort fires, ErrClosed when the log stops, or the
// disk error that failed the log. This is the send gate: a ring frame
// leaves only after WaitLane returns nil for the highest sequence its
// envelopes staged.
func (l *Log) WaitLane(lane int, seq uint64, abort <-chan struct{}) error {
	ll := &l.lanes[lane]
	for {
		ll.mu.Lock()
		if ll.synced >= seq {
			ll.mu.Unlock()
			return nil
		}
		if err := l.failed(); err != nil {
			ll.mu.Unlock()
			return err
		}
		w := ll.waitc
		ll.mu.Unlock()
		l.kick()
		select {
		case <-w:
		case <-abort:
			return ErrAborted
		case <-l.stopc:
			return ErrClosed
		}
	}
}

// kick requests a sync pass; extra kicks coalesce.
func (l *Log) kick() {
	select {
	case l.reqc <- struct{}{}:
	default:
	}
}

// syncLoop is the group-commit engine: one goroutine serving every
// lane, so trains staged by concurrent lanes during the same pass share
// it.
func (l *Log) syncLoop() {
	defer close(l.done)
	tick := time.NewTicker(housekeepEvery)
	defer tick.Stop()
	for {
		select {
		case <-l.reqc:
			l.syncPass()
		case <-tick.C:
			l.syncPass()
		case <-l.stopc:
			return
		}
	}
}

// syncPass flushes and syncs every dirty lane once.
func (l *Log) syncPass() {
	for i := range l.lanes {
		l.flushLane(i)
	}
}

// flushLane swaps out the lane's staging buffer, writes it (appending
// the audit root when enabled), syncs, and publishes the new
// watermark. On a disk error the log fails permanently; waiters are
// woken and receive the error instead of a watermark they would wait
// on forever.
func (l *Log) flushLane(lane int) {
	ll := &l.lanes[lane]
	if l.failed() != nil {
		l.wake(ll)
		return
	}
	ll.mu.Lock()
	if len(ll.buf) == 0 {
		ll.mu.Unlock()
		return
	}
	buf, leaves, target := ll.buf, ll.leaves, ll.staged
	ll.buf = ll.spare[:0]
	ll.leaves = ll.spareL[:0]
	ll.mu.Unlock()

	if l.cfg.MerkleRoots && len(leaves) > 0 {
		count := uint32(len(leaves))
		root := merkleFold(leaves)
		buf = appendRecord(buf, &Record{Type: RecRoot, Count: count, Prev: ll.prevRoot, Root: root})
		ll.prevRoot = root
		l.roots.Add(1)
	}

	err := l.writeLane(ll, buf)
	if err == nil {
		err = ll.f.Sync()
	}
	if err != nil {
		l.setFailed(err)
	}

	ll.mu.Lock()
	if err == nil {
		ll.synced = target
	}
	ll.spare = buf[:0]
	ll.spareL = leaves[:0]
	close(ll.waitc)
	ll.waitc = make(chan struct{})
	ll.mu.Unlock()
	if err == nil {
		l.batches.Add(1)
		l.syncs.Add(1)
		l.syncBytes.Add(uint64(len(buf)))
	}
}

// writeLane appends a batch to the lane's segment, rotating first when
// the segment is full.
func (l *Log) writeLane(ll *laneLog, b []byte) error {
	if ll.segBytes >= l.cfg.SegmentBytes {
		if err := l.rotateLane(ll); err != nil {
			return err
		}
	}
	n, err := ll.f.Write(b)
	ll.segBytes += int64(n)
	return err
}

// rotateLane seals the current segment (synced, so sealed segments are
// immutable-on-disk) and opens the next.
func (l *Log) rotateLane(ll *laneLog) error {
	if err := ll.f.Sync(); err != nil {
		return err
	}
	if err := ll.f.Close(); err != nil {
		return err
	}
	ll.seg++
	f, err := createSegment(l.cfg.Dir, ll.lane, ll.seg)
	if err != nil {
		return err
	}
	ll.f = f
	ll.segBytes = segHeaderSize
	ll.segs = append(ll.segs, ll.seg)
	l.rotations.Add(1)
	return nil
}

func (l *Log) wake(ll *laneLog) {
	ll.mu.Lock()
	close(ll.waitc)
	ll.waitc = make(chan struct{})
	ll.mu.Unlock()
}

// Compact rewrites one lane as a snapshot: rotate to a fresh segment,
// let the caller re-log the lane's live state through add, sync it,
// then delete every segment the snapshot replaced. Call between Open
// and Start. Crash-safe:
// old segments are deleted only after the snapshot is on disk, and the
// replay fold is idempotent, so a crash mid-compaction replays history
// plus a partial snapshot.
func (l *Log) Compact(lane int, emit func(add func(*Record))) error {
	ll := &l.lanes[lane]
	if ll.segBytes == segHeaderSize && len(ll.segs) == 1 {
		return nil // nothing logged, nothing to compact
	}
	if err := l.rotateLane(ll); err != nil {
		return err
	}
	old := ll.segs[:len(ll.segs)-1]
	emit(func(r *Record) { l.Append(lane, r) })
	l.flushLane(lane)
	if err := l.failed(); err != nil {
		return err
	}
	for _, seg := range old {
		if err := os.Remove(segPath(l.cfg.Dir, ll.lane, seg)); err != nil {
			return err
		}
	}
	if err := syncDir(l.cfg.Dir); err != nil {
		return err
	}
	ll.segs = append(ll.segs[:0], ll.seg)
	return nil
}

func (l *Log) failed() error {
	l.failMu.Lock()
	defer l.failMu.Unlock()
	return l.failErr
}

func (l *Log) setFailed(err error) {
	l.failMu.Lock()
	if l.failErr == nil {
		l.failErr = err
	}
	l.failMu.Unlock()
}

// Close stops the syncer, flushes every lane, and syncs — a graceful
// stop never relies on torn-tail repair.
func (l *Log) Close() error {
	l.once.Do(func() { l.closeErr = l.shutdown(false) })
	return l.closeErr
}

// Kill stops the log abruptly, dropping staged-but-unsynced records on
// the floor — the process-crash simulation.
func (l *Log) Kill() {
	l.once.Do(func() { l.closeErr = l.shutdown(true) })
}

func (l *Log) shutdown(abrupt bool) error {
	close(l.stopc)
	if l.started.Load() {
		<-l.done
	}
	var first error
	for i := range l.lanes {
		ll := &l.lanes[i]
		if !abrupt {
			l.flushLane(i)
			if ll.f != nil {
				if err := ll.f.Sync(); err != nil && first == nil {
					first = err
				}
			}
		}
		if ll.f != nil {
			if err := ll.f.Close(); err != nil && first == nil {
				first = err
			}
			ll.f = nil
		}
	}
	if err := l.failed(); err != nil && first == nil {
		first = err
	}
	return first
}

// closeFiles releases any lane files opened by a failed Open.
func (l *Log) closeFiles() {
	for i := range l.lanes {
		if f := l.lanes[i].f; f != nil {
			f.Close()
			l.lanes[i].f = nil
		}
	}
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	return Stats{
		Appends:     l.appends.Load(),
		AppendBytes: l.appendBytes.Load(),
		Batches:     l.batches.Load(),
		Syncs:       l.syncs.Load(),
		SyncBytes:   l.syncBytes.Load(),
		Rotations:   l.rotations.Load(),
		Roots:       l.roots.Load(),
		Replayed:    l.replayed.Load(),
		TornTails:   l.tornTails.Load(),
		Failed:      l.failed() != nil,
	}
}
