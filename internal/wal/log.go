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
// covering the records its envelopes staged: one file sync per sync
// pass, shared by every frame staged during it. Acknowledged writes are
// durable at every server.
const SyncTrain SyncMode = 0

// Config configures one server's log. The zero value of every field
// but Dir is usable.
type Config struct {
	// Dir is the log directory; empty disables the WAL entirely at the
	// layers above this package.
	Dir string
	// Lanes is unused: the log has one staging buffer. The field stays
	// for existing callers; it was never part of the on-disk format.
	Lanes int
	// Sync is the durability policy; Open rejects anything but
	// SyncTrain.
	Sync SyncMode
	// SegmentBytes rotates the log to a fresh segment once the current
	// one exceeds this size. Default 64 MiB.
	SegmentBytes int64
	// MerkleRoots appends a chained batch-root record per sync, making
	// the log tamper-evident (verify offline with Verify).
	MerkleRoots bool
}

const (
	// defaultBatchBytes kicks a sync pass early once the log has staged
	// this much (the group-commit accumulator, mirroring the transport's
	// MaxBatchBytes).
	defaultBatchBytes   = 256 << 10
	defaultSegmentBytes = 64 << 20
	// zeroChunk is how far the syncer extends the open segment with
	// zeros ahead of its records. Batches then overwrite blocks the
	// file already has, so syncing them changes neither the file's size
	// nor its block map; only the pass that writes a chunk pays for
	// growing the file (DESIGN.md §13.2). 256 KiB and 4 MiB measured
	// slower on durable_write.
	zeroChunk = 1 << 20
	// housekeepEvery flushes records whose stager stopped sending.
	housekeepEvery = 100 * time.Millisecond
)

// zeros is the source of every zero-fill write, so extending a segment
// allocates nothing.
var zeros [zeroChunk]byte

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
	Appends       uint64 // records staged
	AppendBytes   uint64 // framed bytes staged
	Syncs         uint64 // file syncs that covered staged records
	SyncBytes     uint64 // record bytes written by those passes
	ZeroFillBytes uint64 // zeros written to extend segments ahead of their records
	Rotations     uint64 // segment rotations
	Roots         uint64 // audit root records written
	Replayed      uint64 // data records replayed at open
	TornTails     uint64 // tails truncated at open (bad CRC / short record)
	Failed        bool   // a disk error stopped the log
}

// Log is one server's write-ahead log: one staging buffer over one
// segment sequence. Append and WaitLane are safe for concurrent use;
// Open/Compact/Start/Close follow the lifecycle
// Open → Compact → Start → Close|Kill.
type Log struct {
	cfg Config

	// Appends land in buf under mu; the syncer swaps buf out, writes and
	// syncs outside the lock (appends continue into the spare), then
	// publishes the new synced watermark and wakes waitc's waiters.
	mu     sync.Mutex
	buf    []byte
	spare  []byte
	leaves [][32]byte
	spareL [][32]byte
	staged uint64 // records staged, monotonic; the Append/WaitLane seq
	synced uint64 // records covered by the last successful sync
	waitc  chan struct{}

	// The open segment, the audit chain and the pass scratch are touched
	// only by the syncer (or before Start, single-threaded). Records end
	// at segBytes; [segBytes, alloc) is the zero-filled run the next
	// batches overwrite.
	f        *os.File
	seg      uint32
	segBytes int64
	alloc    int64
	segs     []uint32 // live segment indices, oldest first
	prevRoot [32]byte // audit chain link
	rootBuf  []byte

	reqc    chan struct{} // sync kick, capacity 1 (kicks coalesce)
	stopc   chan struct{}
	done    chan struct{}
	started atomic.Bool
	once    sync.Once

	failMu  sync.Mutex
	failErr error

	appends, appendBytes atomic.Uint64
	syncs                atomic.Uint64
	syncBytes, zeroFill  atomic.Uint64
	rotations, roots     atomic.Uint64
	replayed, tornTails  atomic.Uint64
	closeErr             error
}

// ReplayFn receives every data record of the log in append order. The
// Record (and its Value) is
// owned by the callee.
type ReplayFn func(r *Record) error

// Open opens (or creates) the log directory and replays it before
// returning, delivering data records to replay (which may be nil to
// scan without delivering — torn tails are still repaired). Replay
// happens here, before the caller wires the log into a running server,
// which is what guarantees recovery replays before any ring adoption
// traffic. Corruption anywhere but the tail of the newest segment is
// an error; a torn or corrupt tail is truncated away and counted in
// Stats.TornTails, and the rest of a zero-filled run is truncated
// without being counted.
func Open(cfg Config, replay ReplayFn) (*Log, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("wal: Config.Dir required")
	}
	if cfg.Sync != SyncTrain {
		return nil, fmt.Errorf("wal: unknown sync mode %d (only SyncTrain exists)", cfg.Sync)
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	if err := loadManifest(cfg.Dir); err != nil {
		return nil, err
	}
	l := &Log{
		cfg:   cfg,
		waitc: make(chan struct{}),
		reqc:  make(chan struct{}, 1),
		stopc: make(chan struct{}),
		done:  make(chan struct{}),
	}
	if err := l.openSegments(replay); err != nil {
		if l.f != nil {
			l.f.Close()
		}
		return nil, fmt.Errorf("wal: %w", err)
	}
	return l, nil
}

// openSegments replays every segment and leaves the newest open for
// writing, cut back to its last intact record.
func (l *Log) openSegments(replay ReplayFn) error {
	segs, err := listSegments(l.cfg.Dir)
	if err != nil {
		return err
	}
	if len(segs) == 0 {
		f, err := createSegment(l.cfg.Dir, 0)
		if err != nil {
			return err
		}
		l.f, l.seg, l.segBytes, l.alloc, l.segs = f, 0, segHeaderSize, segHeaderSize, []uint32{0}
		return nil
	}
	l.segs = segs
	for i, seg := range segs {
		last := i == len(segs)-1
		end, err := l.replaySegment(seg, last, replay)
		if err != nil {
			return err
		}
		if !last {
			continue
		}
		path := segPath(l.cfg.Dir, seg)
		info, err := os.Stat(path)
		if err != nil {
			return err
		}
		if info.Size() > end {
			if err := os.Truncate(path, end); err != nil {
				return err
			}
		}
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			return err
		}
		if err := f.Sync(); err != nil { // make the repair durable
			f.Close()
			return err
		}
		l.f, l.seg, l.segBytes, l.alloc = f, seg, end, end
	}
	return nil
}

// replaySegment scans one segment, delivering data records, tracking
// the audit chain, and returning the offset of the first byte past the
// last intact record. Damage is repaired (and counted) only in the
// newest segment; elsewhere it is corruption. There, a tail of nothing
// but zeros is the unwritten rest of the zero-filled run: the clean
// end of the log, not damage.
func (l *Log) replaySegment(seg uint32, last bool, replay ReplayFn) (int64, error) {
	path := segPath(l.cfg.Dir, seg)
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	if err := checkSegHeader(data, seg); err != nil {
		if !last {
			return 0, fmt.Errorf("segment %d: %w", seg, err)
		}
		// The newest segment can legitimately die mid-creation; any
		// record it might have held was never covered by a sync.
		l.tornTails.Add(1)
		if err := os.Remove(path); err != nil {
			return 0, err
		}
		f, err := createSegment(l.cfg.Dir, seg)
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
			if !allZero(data[off:]) {
				l.tornTails.Add(1)
			}
			return off, nil
		}
		off += int64(n)
		if rec.Type == RecRoot {
			l.prevRoot = rec.Root
			continue
		}
		l.replayed.Add(1)
		if replay != nil {
			if err := replay(&rec); err != nil {
				return 0, err
			}
		}
	}
	return off, nil
}

// allZero reports whether b holds only zero bytes.
func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// Start launches the group-commit syncer. Call after any Compact.
func (l *Log) Start() {
	l.started.Store(true)
	go l.syncLoop()
}

// Append stages one record and returns its sequence number for
// WaitLane. The lane argument is unused: the log has one staging
// buffer, and the signature stays for existing callers. The record's
// bytes (value included) are copied into the staging buffer
// immediately: the caller's buffers — pooled or not — are never
// referenced after Append returns, and nothing reaches the OS until a
// sync pass writes the batch. Amortized zero allocations.
func (l *Log) Append(lane int, r *Record) uint64 {
	l.mu.Lock()
	start := len(l.buf)
	l.buf = appendRecord(l.buf, r)
	if l.cfg.MerkleRoots {
		l.leaves = append(l.leaves, leafHash(l.buf[start+frameHeaderSize:]))
	}
	l.staged++
	seq := l.staged
	size := len(l.buf)
	l.mu.Unlock()
	l.appends.Add(1)
	l.appendBytes.Add(uint64(size - start))
	if size >= defaultBatchBytes {
		l.kick()
	}
	return seq
}

// WaitLane blocks until a sync covers the records up to seq (as
// returned by Append), kicking the group-commit pass. Like Append's,
// the lane argument is unused. It returns ErrAborted when abort fires,
// ErrClosed when the log stops, or the disk error that failed the log.
// This is the send gate: a ring frame leaves only after WaitLane
// returns nil for the highest sequence its envelopes staged.
func (l *Log) WaitLane(lane int, seq uint64, abort <-chan struct{}) error {
	for {
		l.mu.Lock()
		if l.synced >= seq {
			l.mu.Unlock()
			return nil
		}
		if err := l.failed(); err != nil {
			l.mu.Unlock()
			return err
		}
		w := l.waitc
		l.mu.Unlock()
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

// syncLoop is the group-commit engine: one goroutine, so every record
// staged before a pass shares its file sync.
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

// syncPass swaps out the staging buffer, writes the batch at the data
// end (then the audit root, when enabled), issues one file sync, and
// publishes the new watermark. On a disk error the log fails
// permanently, and the waiters are woken to receive the error instead
// of a watermark they would wait on forever.
func (l *Log) syncPass() {
	if l.failed() != nil {
		l.wake()
		return
	}
	l.mu.Lock()
	if len(l.buf) == 0 {
		l.mu.Unlock()
		return
	}
	buf, leaves, target := l.buf, l.leaves, l.staged
	l.buf, l.leaves = l.spare[:0], l.spareL[:0]
	l.mu.Unlock()

	err := l.writePass(buf, leaves)
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		l.setFailed(err)
	} else {
		// Count the pass before publishing its watermark, so a waiter
		// that returns finds the sync it waited on in Stats.
		l.syncs.Add(1)
		l.syncBytes.Add(uint64(len(buf)))
	}

	l.mu.Lock()
	if err == nil {
		l.synced = target
	}
	l.spare, l.spareL = buf[:0], leaves[:0]
	l.mu.Unlock()
	l.wake()
}

// writePass writes one batch, then its audit root when enabled, at the
// data end of the open segment, rotating first when the segment is
// full.
func (l *Log) writePass(buf []byte, leaves [][32]byte) error {
	if l.segBytes >= l.cfg.SegmentBytes {
		if err := l.rotate(); err != nil {
			return err
		}
	}
	l.rootBuf = l.rootBuf[:0]
	if len(leaves) > 0 {
		count := uint32(len(leaves))
		root := merkleFold(leaves)
		l.rootBuf = appendRecord(l.rootBuf, &Record{Type: RecRoot, Count: count, Prev: l.prevRoot, Root: root})
		l.prevRoot = root
		l.roots.Add(1)
	}
	if err := l.reserve(int64(len(buf) + len(l.rootBuf))); err != nil {
		return err
	}
	if err := l.writeAt(buf); err != nil {
		return err
	}
	return l.writeAt(l.rootBuf)
}

// reserve extends the zero-filled run until it holds the next n bytes.
func (l *Log) reserve(n int64) error {
	for l.alloc < l.segBytes+n {
		k, err := l.f.WriteAt(zeros[:], l.alloc)
		l.alloc += int64(k)
		l.zeroFill.Add(uint64(k))
		if err != nil {
			return err
		}
	}
	return nil
}

// writeAt writes b at the data end, over the zero-filled run.
func (l *Log) writeAt(b []byte) error {
	n, err := l.f.WriteAt(b, l.segBytes)
	l.segBytes += int64(n)
	return err
}

// rotate seals the current segment — cut back to its last record and
// synced, so a sealed segment is immutable on disk and ends at a record
// boundary — and opens the next.
func (l *Log) rotate() error {
	if err := l.f.Truncate(l.segBytes); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.f = nil
	l.seg++
	f, err := createSegment(l.cfg.Dir, l.seg)
	if err != nil {
		return err
	}
	l.f = f
	l.segBytes, l.alloc = segHeaderSize, segHeaderSize
	l.segs = append(l.segs, l.seg)
	l.rotations.Add(1)
	return nil
}

// wake wakes the waiters, to observe a new watermark or a failure.
func (l *Log) wake() {
	l.mu.Lock()
	close(l.waitc)
	l.waitc = make(chan struct{})
	l.mu.Unlock()
}

// Compact rewrites the log as a snapshot: rotate to a fresh segment,
// let the caller re-log the live state through add, sync it, then
// delete every segment the snapshot replaced. Call between Open and
// Start. Crash-safe: old segments
// are deleted only after the snapshot is on disk, and the replay fold
// is idempotent, so a crash mid-compaction replays history plus a
// partial snapshot.
func (l *Log) Compact(emit func(add func(*Record))) error {
	if l.segBytes == segHeaderSize && len(l.segs) == 1 {
		return nil // nothing logged, nothing to compact
	}
	if err := l.rotate(); err != nil {
		return err
	}
	old := l.segs[:len(l.segs)-1]
	emit(func(r *Record) { l.Append(0, r) })
	l.syncPass()
	if err := l.failed(); err != nil {
		return err
	}
	for _, seg := range old {
		if err := os.Remove(segPath(l.cfg.Dir, seg)); err != nil {
			return err
		}
	}
	if err := syncDir(l.cfg.Dir); err != nil {
		return err
	}
	l.segs = append(l.segs[:0], l.seg)
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

// Close stops the syncer, flushes the staging buffer, and syncs — a graceful
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
	if l.f != nil {
		if !abrupt {
			l.syncPass()
			if err := l.f.Sync(); err != nil {
				first = err
			}
		}
		if err := l.f.Close(); err != nil && first == nil {
			first = err
		}
		l.f = nil
	}
	if err := l.failed(); err != nil && first == nil {
		first = err
	}
	return first
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	return Stats{
		Appends:       l.appends.Load(),
		AppendBytes:   l.appendBytes.Load(),
		Syncs:         l.syncs.Load(),
		SyncBytes:     l.syncBytes.Load(),
		ZeroFillBytes: l.zeroFill.Load(),
		Rotations:     l.rotations.Load(),
		Roots:         l.roots.Load(),
		Replayed:      l.replayed.Load(),
		TornTails:     l.tornTails.Load(),
		Failed:        l.failed() != nil,
	}
}
