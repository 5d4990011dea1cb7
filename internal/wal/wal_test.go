package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/tag"
)

func testRecords() []Record {
	return []Record{
		{Type: RecInit, Object: 7, Tag: tag.Tag{TS: 1, ID: 2}, Origin: 2, Client: 100001, ReqID: 1, Flags: FlagHasValue, Value: []byte("hello")},
		{Type: RecPreWrite, Object: 7, Tag: tag.Tag{TS: 2, ID: 3}, Origin: 3, Flags: FlagHasValue, Value: []byte("world-longer-value")},
		{Type: RecWrite, Object: 7, Tag: tag.Tag{TS: 1, ID: 2}, Origin: 2},
		{Type: RecAck, Object: 7, Tag: tag.Tag{TS: 1, ID: 2}, Origin: 2, Client: 100001, ReqID: 1},
		{Type: RecInit, Object: 9, Tag: tag.Tag{TS: 5, ID: 1}, Origin: 1, Client: 100002, ReqID: 42, Flags: FlagHasValue | FlagPhaseWrite, Value: []byte{}},
	}
}

func recordsEqual(a, b Record) bool {
	return a.Type == b.Type && a.Object == b.Object && a.Tag == b.Tag &&
		a.Origin == b.Origin && a.Client == b.Client && a.ReqID == b.ReqID &&
		a.Flags == b.Flags && bytes.Equal(a.Value, b.Value) &&
		a.Count == b.Count && a.Prev == b.Prev && a.Root == b.Root
}

func TestRecordRoundTrip(t *testing.T) {
	recs := testRecords()
	recs = append(recs, Record{Type: RecRoot, Count: 3, Prev: [32]byte{1}, Root: [32]byte{2}})
	var buf []byte
	for i := range recs {
		buf = appendRecord(buf, &recs[i])
	}
	off := 0
	for i := range recs {
		got, n, err := decodeRecord(buf[off:])
		if err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		want := recs[i]
		want.Value = nil
		if len(recs[i].Value) > 0 {
			want.Value = recs[i].Value
		}
		if !recordsEqual(got, want) {
			t.Fatalf("record %d: got %+v want %+v", i, got, want)
		}
		off += n
	}
	if off != len(buf) {
		t.Fatalf("decoded %d of %d bytes", off, len(buf))
	}
}

type replayed struct {
	lane int
	rec  Record
}

func collect(dst *[]replayed) ReplayFn {
	return func(lane int, r *Record) error {
		*dst = append(*dst, replayed{lane, *r})
		return nil
	}
}

func TestOpenAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Lanes: 2}
	l, err := Open(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords()
	for i := range recs {
		lane := i % 2
		if seq := l.Append(lane, &recs[i]); seq == 0 {
			t.Fatal("Append returned sequence 0")
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var got []replayed
	l2, err := Open(cfg, collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if st := l2.Stats(); st.Replayed != uint64(len(recs)) || st.TornTails != 0 {
		t.Fatalf("replayed %d records, %d torn tails; want %d, 0", st.Replayed, st.TornTails, len(recs))
	}
	perLane := map[int][]Record{}
	for _, g := range got {
		perLane[g.lane] = append(perLane[g.lane], g.rec)
	}
	for i := range recs {
		lane := i % 2
		want := recs[i]
		if len(want.Value) == 0 {
			want.Value = nil
		}
		g := perLane[lane][0]
		perLane[lane] = perLane[lane][1:]
		if !recordsEqual(g, want) {
			t.Fatalf("lane %d record: got %+v want %+v", lane, g, want)
		}
	}
}

func TestManifestLaneMismatch(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir, Lanes: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := Open(Config{Dir: dir, Lanes: 4}, nil); err == nil {
		t.Fatal("reopening with a different lane count should fail")
	}
}

// seedSegment builds a pristine single-lane log with the test records
// and returns the manifest bytes, segment bytes, and each record's
// frame offset within the segment file.
func seedSegment(t *testing.T) (manifest, segment []byte, offsets []int) {
	t.Helper()
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir, Lanes: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords()
	for i := range recs {
		l.Append(0, &recs[i])
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	manifest, err = os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	segment, err = os.ReadFile(segPath(dir, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	off := segHeaderSize
	for off < len(segment) {
		_, n, err := decodeRecord(segment[off:])
		if err != nil {
			t.Fatalf("pristine segment undecodable at %d: %v", off, err)
		}
		offsets = append(offsets, off)
		off += n
	}
	return manifest, segment, offsets
}

func restoreDir(t *testing.T, manifest, segment []byte) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestName), manifest, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segPath(dir, 0, 0), segment, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestTornTailEveryOffset truncates the segment at every byte offset
// inside the last record, and separately corrupts every byte of it:
// replay must always recover exactly the preceding records, count one
// torn tail, and leave the log appendable.
func TestTornTailEveryOffset(t *testing.T) {
	manifest, segment, offsets := seedSegment(t)
	recs := testRecords()
	lastStart := offsets[len(offsets)-1]
	wantPrefix := len(offsets) - 1

	check := func(t *testing.T, dir string, wantTorn uint64) {
		var got []replayed
		cfg := Config{Dir: dir, Lanes: 1}
		l, err := Open(cfg, collect(&got))
		if err != nil {
			t.Fatalf("open after damage: %v", err)
		}
		st := l.Stats()
		if st.TornTails != wantTorn {
			t.Fatalf("torn tails = %d, want %d", st.TornTails, wantTorn)
		}
		if len(got) != wantPrefix {
			t.Fatalf("replayed %d records, want the %d-record prefix", len(got), wantPrefix)
		}
		for i, g := range got {
			want := recs[i]
			if len(want.Value) == 0 {
				want.Value = nil
			}
			if !recordsEqual(g.rec, want) {
				t.Fatalf("record %d diverged after repair: got %+v want %+v", i, g.rec, want)
			}
		}
		// The repaired log must accept and persist new appends.
		extra := Record{Type: RecWrite, Object: 1, Tag: tag.Tag{TS: 9, ID: 1}, Origin: 1, Flags: FlagHasValue, Value: []byte("post-repair")}
		l.Append(0, &extra)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		var again []replayed
		l2, err := Open(cfg, collect(&again))
		if err != nil {
			t.Fatal(err)
		}
		defer l2.Close()
		if len(again) != wantPrefix+1 || !recordsEqual(again[len(again)-1].rec, extra) {
			t.Fatalf("after repair+append: replayed %d records, want %d ending in the new append", len(again), wantPrefix+1)
		}
	}

	for cut := lastStart; cut < len(segment); cut++ {
		t.Run(fmt.Sprintf("truncate@%d", cut), func(t *testing.T) {
			dir := restoreDir(t, manifest, segment[:cut])
			var wantTorn uint64 = 1
			if cut == lastStart {
				wantTorn = 0 // a clean cut at a record boundary is not torn
			}
			check(t, dir, wantTorn)
		})
	}
	for off := lastStart; off < len(segment); off++ {
		t.Run(fmt.Sprintf("corrupt@%d", off), func(t *testing.T) {
			mut := append([]byte(nil), segment...)
			mut[off] ^= 0x5a
			dir := restoreDir(t, manifest, mut)
			check(t, dir, 1)
		})
	}
}

func TestCorruptionInSealedSegmentIsFatal(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Lanes: 1, SegmentBytes: 1} // rotate on every flush
	l, err := Open(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords()
	for i := range recs {
		l.Append(0, &recs[i])
		l.flushLane(0) // one flush per record -> one rotation each
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt a record in an early sealed segment (with SegmentBytes 1
	// every batch rotates first, so segment 0 holds only its header and
	// the first record lives in segment 1).
	path := segPath(dir, 0, 1)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) <= segHeaderSize+frameHeaderSize {
		t.Fatalf("setup: segment 1 holds no record (%d bytes)", len(b))
	}
	b[segHeaderSize+frameHeaderSize] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(cfg, nil); err == nil {
		t.Fatal("corruption in a sealed segment must fail the open")
	}
}

func TestRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Lanes: 1, SegmentBytes: 256}
	l, err := Open(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{Type: RecWrite, Object: 3, Origin: 1, Flags: FlagHasValue, Value: bytes.Repeat([]byte("v"), 64)}
	for i := 0; i < 50; i++ {
		rec.Tag = tag.Tag{TS: uint64(i + 1), ID: 1}
		l.Append(0, &rec)
		if i%5 == 4 {
			l.flushLane(0)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Rotations == 0 {
		t.Fatal("expected segment rotations")
	}
	segs, err := listSegments(dir, 0)
	if err != nil || len(segs) < 3 {
		t.Fatalf("want >= 3 segments, got %d (err %v)", len(segs), err)
	}

	// Reopen, compact to a single snapshot record, and confirm the
	// old segments are gone and replay sees only the snapshot.
	var count int
	l2, err := Open(cfg, func(lane int, r *Record) error { count++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if count != 50 {
		t.Fatalf("replayed %d records, want 50", count)
	}
	snap := Record{Type: RecWrite, Object: 3, Tag: tag.Tag{TS: 50, ID: 1}, Origin: 1, Flags: FlagHasValue, Value: bytes.Repeat([]byte("v"), 64)}
	if err := l2.Compact(0, func(add func(*Record)) { add(&snap) }); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err = listSegments(dir, 0)
	if err != nil || len(segs) != 1 {
		t.Fatalf("after compaction want 1 segment, got %v (err %v)", segs, err)
	}
	var got []replayed
	l3, err := Open(cfg, collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if len(got) != 1 || !recordsEqual(got[0].rec, snap) {
		t.Fatalf("replay after compaction: got %d records, want just the snapshot", len(got))
	}
}

func TestWaitLaneTrainGate(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir, Lanes: 1, Sync: SyncTrain}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.Start()
	rec := Record{Type: RecInit, Object: 1, Tag: tag.Tag{TS: 1, ID: 1}, Origin: 1, Flags: FlagHasValue, Value: []byte("x")}
	seq := l.Append(0, &rec)
	if err := l.WaitLane(0, seq, nil); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Syncs == 0 {
		t.Fatal("WaitLane returned without a covering sync")
	}
	if st.Appends != 1 || st.Batches == 0 {
		t.Fatalf("stats after one gated append: %+v", st)
	}
	// An abort channel firing must unblock a waiter for an unsynced seq.
	abort := make(chan struct{})
	close(abort)
	if err := l.WaitLane(0, seq+100, abort); err != ErrAborted {
		t.Fatalf("aborted wait returned %v, want ErrAborted", err)
	}
}

// TestKillDropsStagedRecords is the crash simulation: records staged
// but never covered by a sync must not survive, even on a filesystem
// that would have kept buffered writes.
func TestKillDropsStagedRecords(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Lanes: 1, Sync: SyncTrain}
	l, err := Open(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// No Start(): nothing can flush the staged records.
	synced := Record{Type: RecInit, Object: 1, Tag: tag.Tag{TS: 1, ID: 1}, Origin: 1, Flags: FlagHasValue, Value: []byte("durable")}
	seq := l.Append(0, &synced)
	l.flushLane(0)
	if l.Stats().Syncs != 1 {
		t.Fatal("setup: first record should be synced")
	}
	staged := Record{Type: RecInit, Object: 1, Tag: tag.Tag{TS: 2, ID: 1}, Origin: 1, Flags: FlagHasValue, Value: []byte("lost")}
	if s2 := l.Append(0, &staged); s2 != seq+1 {
		t.Fatalf("unexpected sequence %d", s2)
	}
	l.Kill()

	var got []replayed
	l2, err := Open(cfg, collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(got) != 1 || !bytes.Equal(got[0].rec.Value, []byte("durable")) {
		t.Fatalf("after kill: replayed %d records (%v), want only the synced one", len(got), got)
	}
	if l2.Stats().TornTails != 0 {
		t.Fatal("a kill between syncs must not leave a torn tail (staged records never touch the file)")
	}
}

func TestVerifyAuditChain(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Lanes: 2, Sync: SyncTrain, MerkleRoots: true}
	l, err := Open(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords()
	for round := 0; round < 3; round++ {
		for i := range recs {
			l.Append(i%2, &recs[i])
		}
		l.flushLane(0)
		l.flushLane(1)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := Verify(dir)
	if err != nil {
		t.Fatalf("verify clean log: %v", err)
	}
	if res.Lanes != 2 || res.Records != uint64(3*len(recs)) || res.Roots == 0 || res.Unrooted != 0 || res.TornTail {
		t.Fatalf("unexpected verify result: %+v", res)
	}

	// Root chaining must survive a reopen (the chain continues from
	// the replayed prevRoot rather than restarting at zero).
	l2, err := Open(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	l2.Append(0, &recs[0])
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(dir); err != nil {
		t.Fatalf("verify after reopen append: %v", err)
	}

	// Tampering with a committed value must break verification even
	// though the CRC is fixed up to match.
	path := segPath(dir, 0, 0)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := false
	for off := segHeaderSize; off < len(b); {
		rec, n, err := decodeRecord(b[off:])
		if err != nil {
			t.Fatal(err)
		}
		if !tampered && rec.Type != RecRoot && len(rec.Value) > 0 {
			rec.Value[0] ^= 0xff
			fixed := appendRecord(nil, &rec)
			copy(b[off:], fixed)
			tampered = true
		}
		off += n
	}
	if !tampered {
		t.Fatal("setup: no value record to tamper with")
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(dir); err == nil {
		t.Fatal("verify must detect a CRC-consistent value tamper via the Merkle chain")
	}
}

// TestOpenRejectsUnknownSyncMode pins that SyncTrain is the only sync
// policy: any other numeric mode must fail at Open, so that no
// configuration can silently mean "never gate an ack".
func TestOpenRejectsUnknownSyncMode(t *testing.T) {
	if l, err := Open(Config{Dir: t.TempDir(), Lanes: 1, Sync: SyncMode(1)}, nil); err == nil {
		l.Close()
		t.Fatal("Open accepted SyncMode(1)")
	}
}

// truncateStaging empties a lane's staging buffer in place, as a flush
// would, without writing it: the syncer is never started by the
// staging-path measurements below, so nothing else drains it (a kick
// only fills the unserved request channel).
func truncateStaging(l *Log, lane int) {
	ll := &l.lanes[lane]
	ll.mu.Lock()
	ll.buf = ll.buf[:0]
	ll.mu.Unlock()
}

func BenchmarkAppend(b *testing.B) {
	// The syncer is never started, so this isolates the staging path the
	// lane goroutines execute (the 0 allocs/op hot-path gate).
	l, err := Open(Config{Dir: b.TempDir(), Lanes: 1}, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Kill()
	val := bytes.Repeat([]byte("v"), 128)
	rec := Record{Type: RecWrite, Object: 1, Origin: 1, Flags: FlagHasValue, Value: val}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Tag = tag.Tag{TS: uint64(i + 1), ID: 1}
		l.Append(0, &rec)
		if i%8192 == 8191 {
			truncateStaging(l, 0) // bound staging growth; amortizes to ~0 allocs/op
		}
	}
}

// TestAppendNoAlloc gates the cost a lane's event loop pays per committed
// envelope — encode, CRC, copy into the lane's staging buffer — at zero
// steady-state allocations. The syncer is never started; each run
// truncates the staging buffer once it has grown to the burst's size.
func TestAppendNoAlloc(t *testing.T) {
	l, err := Open(Config{Dir: t.TempDir(), Lanes: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Kill()
	rec := Record{Type: RecPreWrite, Object: 7, Origin: 2, Flags: FlagHasValue, Value: make([]byte, 1024)}
	ts := uint64(0)
	burst := func() {
		for i := 0; i < 64; i++ {
			ts++
			rec.Tag = tag.Tag{TS: ts, ID: 2}
			l.Append(0, &rec)
		}
		truncateStaging(l, 0)
	}
	burst()
	if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
		t.Fatalf("append path allocates %.1f per 64-record burst, want 0", allocs)
	}
}
