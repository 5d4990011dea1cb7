package wal

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/tag"
	"repro/internal/wire"
)

// FuzzDecodeWALRecord fuzzes the record codec: decoding arbitrary
// bytes must never panic, and whatever decodes successfully must
// re-encode to the identical frame (the codec is canonical — this is
// what lets Verify recompute audit leaves from re-framed records).
func FuzzDecodeWALRecord(f *testing.F) {
	seeds := testRecords()
	seeds = append(seeds,
		Record{Type: RecRoot, Count: 8, Prev: [32]byte{0xaa}, Root: [32]byte{0xbb}},
		Record{Type: RecWrite, Object: wire.ObjectID(^uint32(0) >> 1), Tag: tag.Tag{TS: ^uint64(0), ID: ^uint32(0)}, Origin: 1, Flags: 0xff, Value: bytes.Repeat([]byte{0x7f}, 300)},
	)
	for i := range seeds {
		f.Add(appendRecord(nil, &seeds[i]))
	}
	// Damaged variants: truncated, flipped version, flipped type byte.
	enc := appendRecord(nil, &seeds[0])
	f.Add(enc[:len(enc)-1])
	bad := append([]byte(nil), enc...)
	bad[frameHeaderSize] ^= 0xff
	f.Add(bad)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		rec, n, err := decodeRecord(b)
		if err != nil {
			return
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(b))
		}
		re := appendRecord(nil, &rec)
		if !bytes.Equal(re, b[:n]) {
			t.Fatalf("re-encode not canonical:\n in  %x\n out %x", b[:n], re)
		}
	})
}

// FuzzOpenSegmentTail fuzzes what a crash can leave past the last
// synced record of the newest segment: a valid header and the first
// keep test records, intact, then arbitrary bytes. Open must neither
// panic nor fail, must replay every intact record first (whatever whole
// records the tail happens to frame may follow), and must leave a log
// whose next Open repairs nothing and replays the same records.
func FuzzOpenSegmentTail(f *testing.F) {
	recs := testRecords()
	rec0 := appendRecord(nil, &recs[0])
	f.Add(uint8(len(recs)), []byte{})
	f.Add(uint8(len(recs)), make([]byte, 64))
	f.Add(uint8(2), append(make([]byte, frameHeaderSize), 1))
	f.Add(uint8(3), rec0[:len(rec0)-3])
	f.Add(uint8(0), append(rec0, make([]byte, 32)...))

	f.Fuzz(func(t *testing.T, keep uint8, tail []byte) {
		k := int(keep) % (len(recs) + 1)
		dir := t.TempDir()
		if err := loadManifest(dir); err != nil {
			t.Fatal(err)
		}
		hdr := segHeader(0)
		seg := hdr[:]
		for i := 0; i < k; i++ {
			seg = appendRecord(seg, &recs[i])
		}
		seg = append(seg, tail...)
		if err := os.WriteFile(segPath(dir, 0), seg, 0o644); err != nil {
			t.Fatal(err)
		}

		cfg := Config{Dir: dir}
		var got []Record
		l, err := Open(cfg, collect(&got))
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if len(got) < k {
			t.Fatalf("replayed %d records, want at least the %d intact ones", len(got), k)
		}
		for i := 0; i < k; i++ {
			if want := decoded(recs[i]); !recordsEqual(got[i], want) {
				t.Fatalf("intact record %d replayed as %+v, want %+v", i, got[i], want)
			}
		}

		var again []Record
		l2, err := Open(cfg, collect(&again))
		if err != nil {
			t.Fatalf("second open: %v", err)
		}
		defer l2.Close()
		if st := l2.Stats(); st.TornTails != 0 {
			t.Fatalf("second open repaired %d torn tails", st.TornTails)
		}
		if len(again) != len(got) {
			t.Fatalf("second open replayed %d records, the first %d", len(again), len(got))
		}
		for i := range got {
			if !recordsEqual(again[i], got[i]) {
				t.Fatalf("record %d changed between opens: %+v then %+v", i, got[i], again[i])
			}
		}
	})
}
