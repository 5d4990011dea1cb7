package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
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

// decoded is r as replay returns it: an empty value decodes as nil.
func decoded(r Record) Record {
	if len(r.Value) == 0 {
		r.Value = nil
	}
	return r
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
		if want := decoded(recs[i]); !recordsEqual(got, want) {
			t.Fatalf("record %d: got %+v want %+v", i, got, want)
		}
		off += n
	}
	if off != len(buf) {
		t.Fatalf("decoded %d of %d bytes", off, len(buf))
	}
}

func collect(dst *[]Record) ReplayFn {
	return func(r *Record) error {
		*dst = append(*dst, *r)
		return nil
	}
}

// TestOpenAppendReplayRoundTrip stages records on two lanes, closes the
// log, and reopens it: one pass wrote lane 0's batch, then lane 1's,
// into the one segment, ahead of a zero-filled run that the reopen must
// read as the clean end of the log, not as a torn tail.
func TestOpenAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Lanes: 2}
	l, err := Open(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords()
	for i := range recs {
		if seq := l.Append(i%2, &recs[i]); seq == 0 {
			t.Fatal("Append returned sequence 0")
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Syncs != 1 || st.Batches != 2 {
		t.Fatalf("close flushed with %d syncs over %d batches, want 1 over 2", st.Syncs, st.Batches)
	}
	info, err := os.Stat(segPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if end := int64(segHeaderSize) + int64(st.SyncBytes); info.Size() <= end || st.ZeroFillBytes == 0 {
		t.Fatalf("segment is %d bytes with records ending at %d (%d zero-fill bytes): no zero-filled run",
			info.Size(), end, st.ZeroFillBytes)
	}

	var got []Record
	l2, err := Open(cfg, collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if st := l2.Stats(); st.Replayed != uint64(len(recs)) || st.TornTails != 0 {
		t.Fatalf("replayed %d records, %d torn tails; want %d, 0", st.Replayed, st.TornTails, len(recs))
	}
	var want []Record
	for lane := 0; lane < 2; lane++ {
		for i := lane; i < len(recs); i += 2 {
			want = append(want, decoded(recs[i]))
		}
	}
	for i := range want {
		if !recordsEqual(got[i], want[i]) {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// TestOneSyncCoversEveryLane pins the group commit's promise: a pass
// writes every dirty lane's batch into the one segment and covers them
// all with a single file sync, so the other lanes' waits then return
// without another.
func TestOneSyncCoversEveryLane(t *testing.T) {
	const lanes = 4
	l, err := Open(Config{Dir: t.TempDir(), Lanes: lanes}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rec := Record{Type: RecPreWrite, Object: 1, Tag: tag.Tag{TS: 1, ID: 2}, Origin: 2, Flags: FlagHasValue, Value: []byte("v")}
	var seqs [lanes]uint64
	for lane := range seqs {
		seqs[lane] = l.Append(lane, &rec)
	}
	l.Start()
	if err := l.WaitLane(0, seqs[0], nil); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Syncs != 1 || st.Batches != lanes {
		t.Fatalf("after waiting on lane 0: %d syncs over %d batches, want 1 over %d", st.Syncs, st.Batches, lanes)
	}
	for lane := 1; lane < lanes; lane++ {
		if err := l.WaitLane(lane, seqs[lane], nil); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Syncs != 1 {
		t.Fatalf("lanes 1-%d needed %d more syncs, want 0", lanes-1, st.Syncs-1)
	}
}

// TestOpenRefusesPerLaneFormat pins the format break: a directory in
// the per-lane layout (MANIFEST version 1, one segment sequence per
// lane) is refused, by Open and Verify alike, with an error naming that
// layout, and left untouched; nothing migrates it.
func TestOpenRefusesPerLaneFormat(t *testing.T) {
	dir := t.TempDir()
	var m [manifestSize]byte
	binary.LittleEndian.PutUint32(m[0:], manifestMagic)
	binary.LittleEndian.PutUint16(m[4:], 1)
	binary.LittleEndian.PutUint16(m[6:], 2) // the lane count version 1 pinned
	if err := os.WriteFile(filepath.Join(dir, manifestName), m[:], 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(Config{Dir: dir, Lanes: 2}, nil)
	if err == nil {
		l.Close()
		t.Fatal("Open accepted a per-lane (version 1) directory")
	}
	if !strings.Contains(err.Error(), "per-lane") {
		t.Fatalf("Open's refusal does not name the per-lane format: %v", err)
	}
	if _, err := Verify(dir); err == nil || !strings.Contains(err.Error(), "per-lane") {
		t.Fatalf("Verify of a per-lane directory: %v, want the per-lane refusal", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("the refused directory holds %d entries, want only its MANIFEST", len(entries))
	}
}

// seedSegment builds a pristine single-lane log with the test records
// and returns the manifest bytes, the segment bytes — zero-filled run
// included — each record's frame offset, and the offset just past the
// last record.
func seedSegment(t *testing.T) (manifest, segment []byte, offsets []int, end int) {
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
	segment, err = os.ReadFile(segPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	end = segHeaderSize
	for !allZero(segment[end:]) {
		_, n, err := decodeRecord(segment[end:])
		if err != nil {
			t.Fatalf("pristine segment undecodable at %d: %v", end, err)
		}
		offsets = append(offsets, end)
		end += n
	}
	if len(offsets) != len(recs) || len(segment) <= end {
		t.Fatalf("setup: %d records ending at %d in a %d-byte segment; want %d records and a zero-filled run",
			len(offsets), end, len(segment), len(recs))
	}
	return manifest, segment, offsets, end
}

func restoreDir(t *testing.T, manifest, segment []byte) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestName), manifest, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segPath(dir, 0), segment, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestTornTailEveryOffset damages a segment that ends in a zero-filled
// run, as the open segment always does: it cuts the file at every
// offset, zeroes it from every offset to EOF, and corrupts every byte of
// the last record. Replay must recover exactly the records that lie
// wholly before the damage, count a torn tail exactly when the damage
// does not start on a record boundary, and leave the log appendable.
func TestTornTailEveryOffset(t *testing.T) {
	manifest, segment, offsets, end := seedSegment(t)
	recs := testRecords()
	lastStart := offsets[len(offsets)-1]
	// intact reports how many records end at or before off, and whether
	// off is a record boundary (the end of the records included).
	ends := append(offsets[1:len(offsets):len(offsets)], end)
	intact := func(off int) (n int, boundary bool) {
		boundary = off >= end
		for i := range offsets {
			boundary = boundary || offsets[i] == off
			if ends[i] <= off {
				n++
			}
		}
		return n, boundary
	}
	// zeroed is intact for zeroing from off to EOF, which leaves a
	// record that already ends in zeros from off onwards unchanged.
	zeroed := func(off int) (n int, boundary bool) {
		for n < len(offsets) && allZero(segment[min(max(offsets[n], off), ends[n]):ends[n]]) {
			n++
		}
		return n, n == len(offsets) || offsets[n] >= off
	}

	check := func(t *testing.T, dir string, wantN int, wantTorn uint64) {
		var got []Record
		cfg := Config{Dir: dir, Lanes: 1}
		l, err := Open(cfg, collect(&got))
		if err != nil {
			t.Fatalf("open after damage: %v", err)
		}
		st := l.Stats()
		if st.TornTails != wantTorn {
			t.Fatalf("torn tails = %d, want %d", st.TornTails, wantTorn)
		}
		if len(got) != wantN {
			t.Fatalf("replayed %d records, want the %d-record prefix", len(got), wantN)
		}
		for i, g := range got {
			if want := decoded(recs[i]); !recordsEqual(g, want) {
				t.Fatalf("record %d diverged after repair: got %+v want %+v", i, g, want)
			}
		}
		// The repaired log must accept and persist new appends.
		extra := Record{Type: RecWrite, Object: 1, Tag: tag.Tag{TS: 9, ID: 1}, Origin: 1, Flags: FlagHasValue, Value: []byte("post-repair")}
		l.Append(0, &extra)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		var again []Record
		l2, err := Open(cfg, collect(&again))
		if err != nil {
			t.Fatal(err)
		}
		defer l2.Close()
		if st := l2.Stats(); st.TornTails != 0 {
			t.Fatalf("reopen after repair+append counted %d torn tails", st.TornTails)
		}
		if len(again) != wantN+1 || !recordsEqual(again[len(again)-1], extra) {
			t.Fatalf("after repair+append: replayed %d records, want %d ending in the new append", len(again), wantN+1)
		}
	}
	torn := func(boundary bool) uint64 {
		if boundary {
			return 0
		}
		return 1
	}

	// Every offset through the records and into the run, then a few
	// deeper into the run and the full file.
	cuts := []int{}
	for off := segHeaderSize; off <= end+frameHeaderSize; off++ {
		cuts = append(cuts, off)
	}
	cuts = append(cuts, end+(len(segment)-end)/2, len(segment))
	for _, cut := range cuts {
		t.Run(fmt.Sprintf("truncate@%d", cut), func(t *testing.T) {
			n, boundary := intact(cut)
			check(t, restoreDir(t, manifest, segment[:cut]), n, torn(boundary))
		})
	}
	for off := segHeaderSize; off <= end; off++ {
		t.Run(fmt.Sprintf("zero@%d", off), func(t *testing.T) {
			mut := append([]byte(nil), segment...)
			clear(mut[off:])
			n, boundary := zeroed(off)
			check(t, restoreDir(t, manifest, mut), n, torn(boundary))
		})
	}
	for off := lastStart; off < end; off++ {
		t.Run(fmt.Sprintf("corrupt@%d", off), func(t *testing.T) {
			mut := append([]byte(nil), segment...)
			mut[off] ^= 0x5a
			check(t, restoreDir(t, manifest, mut), len(offsets)-1, 1)
		})
	}
}

// TestZeroRunWithStrayByteIsTorn: a zero frame header is the clean end
// of the log only when nothing but zeros follows it up to EOF. One
// non-zero byte anywhere later in the run makes the tail torn: counted
// once, truncated, and clean at the next open.
func TestZeroRunWithStrayByteIsTorn(t *testing.T) {
	manifest, segment, offsets, end := seedSegment(t)
	for _, at := range []int{end + frameHeaderSize, len(segment) - 1} {
		t.Run(fmt.Sprintf("stray@%d", at), func(t *testing.T) {
			mut := append([]byte(nil), segment...)
			mut[at] = 1
			dir := restoreDir(t, manifest, mut)
			cfg := Config{Dir: dir, Lanes: 1}
			for round, wantTorn := range []uint64{1, 0} {
				var got []Record
				l, err := Open(cfg, collect(&got))
				if err != nil {
					t.Fatal(err)
				}
				st := l.Stats()
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				if st.TornTails != wantTorn || len(got) != len(offsets) {
					t.Fatalf("open %d: %d torn tails, %d records; want %d, %d",
						round, st.TornTails, len(got), wantTorn, len(offsets))
				}
			}
		})
	}
}

func TestCorruptionInSealedSegmentIsFatal(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Lanes: 1, SegmentBytes: 1} // rotate on every pass
	l, err := Open(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords()
	for i := range recs {
		l.Append(0, &recs[i])
		l.syncPass() // one pass per record -> one rotation each
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt a record in an early sealed segment (with SegmentBytes 1
	// every batch rotates first, so segment 0 holds only its header and
	// the first record lives in segment 1).
	path := segPath(dir, 1)
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
			l.syncPass()
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Rotations == 0 {
		t.Fatal("expected segment rotations")
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("want >= 3 segments, got %d (err %v)", len(segs), err)
	}
	// Rotation cuts a sealed segment back to its last record: no
	// zero-filled run survives in it.
	for _, seg := range segs[:len(segs)-1] {
		b, err := os.ReadFile(segPath(dir, seg))
		if err != nil {
			t.Fatal(err)
		}
		off := segHeaderSize
		for off < len(b) {
			_, n, err := decodeRecord(b[off:])
			if err != nil {
				t.Fatalf("sealed segment %d does not end at a record boundary: offset %d of %d: %v", seg, off, len(b), err)
			}
			off += n
		}
	}

	// Reopen, compact to a single snapshot record, and confirm the
	// old segments are gone and replay sees only the snapshot.
	var count int
	l2, err := Open(cfg, func(r *Record) error { count++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if count != 50 {
		t.Fatalf("replayed %d records, want 50", count)
	}
	snap := Record{Type: RecWrite, Object: 3, Tag: tag.Tag{TS: 50, ID: 1}, Origin: 1, Flags: FlagHasValue, Value: bytes.Repeat([]byte("v"), 64)}
	if err := l2.Compact(func(add func(*Record)) { add(&snap) }); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err = listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("after compaction want 1 segment, got %v (err %v)", segs, err)
	}
	var got []Record
	l3, err := Open(cfg, collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if len(got) != 1 || !recordsEqual(got[0], snap) {
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
	l.syncPass()
	if l.Stats().Syncs != 1 {
		t.Fatal("setup: first record should be synced")
	}
	staged := Record{Type: RecInit, Object: 1, Tag: tag.Tag{TS: 2, ID: 1}, Origin: 1, Flags: FlagHasValue, Value: []byte("lost")}
	if s2 := l.Append(0, &staged); s2 != seq+1 {
		t.Fatalf("unexpected sequence %d", s2)
	}
	l.Kill()

	var got []Record
	l2, err := Open(cfg, collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(got) != 1 || !bytes.Equal(got[0].Value, []byte("durable")) {
		t.Fatalf("after kill: replayed %d records (%v), want only the synced one", len(got), got)
	}
	if l2.Stats().TornTails != 0 {
		t.Fatal("a kill between syncs must not leave a torn tail (staged records never touch the file)")
	}
}

// TestVerifyAuditChain checks the one audit chain of a log: each pass
// appends one root covering every lane's batch in file order, the chain
// survives a reopen, and a CRC-consistent tamper breaks it.
func TestVerifyAuditChain(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Lanes: 2, Sync: SyncTrain, MerkleRoots: true}
	l, err := Open(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords()
	const rounds = 3
	for round := 0; round < rounds; round++ {
		for i := range recs {
			l.Append(i%2, &recs[i])
		}
		l.syncPass()
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := Verify(dir)
	if err != nil {
		t.Fatalf("verify clean log: %v", err)
	}
	want := VerifyResult{Segments: 1, Records: uint64(rounds * len(recs)), Roots: rounds}
	if res != want {
		t.Fatalf("verify result %+v, want %+v", res, want)
	}

	// Root chaining must survive a reopen (the chain continues from
	// the replayed prevRoot rather than restarting at zero).
	l2, err := Open(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	l2.Append(1, &recs[0])
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	if res, err := Verify(dir); err != nil || res.Roots != rounds+1 {
		t.Fatalf("verify after reopen append: %+v, %v; want %d roots", res, err, rounds+1)
	}

	// Tampering with a committed value must break verification even
	// though the CRC is fixed up to match.
	path := segPath(dir, 0)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := false
	for off := segHeaderSize; !allZero(b[off:]); {
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
