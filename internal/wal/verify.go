package wal

import (
	"fmt"
	"os"
)

// VerifyResult summarizes an offline scan of one WAL directory.
type VerifyResult struct {
	Segments int
	Records  uint64 // data records scanned
	Roots    uint64 // audit root records checked
	Unrooted uint64 // data records past the last root (never synced under audit, or audit off)
	TornTail bool   // the newest segment ends mid-record (repairable)
}

// Verify scans a WAL directory read-only: CRC-checks all records and,
// where audit roots are present, recomputes each batch's Merkle root
// and checks the Prev chain between consecutive roots. The first root
// of the oldest surviving segment anchors the chain (compaction may
// have retired its predecessors). Corruption anywhere but the
// repairable tail of the newest segment is an error; a tail of zeros
// there is the unwritten rest of the zero-filled run, not damage.
func Verify(dir string) (VerifyResult, error) {
	var res VerifyResult
	if err := checkManifest(dir); err != nil {
		return res, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		return res, err
	}
	res.Segments = len(segs)
	var (
		prevRoot [32]byte
		haveRoot bool
		leaves   [][32]byte
	)
	for i, seg := range segs {
		last := i == len(segs)-1
		data, err := os.ReadFile(segPath(dir, seg))
		if err != nil {
			return res, err
		}
		if err := checkSegHeader(data, seg); err != nil {
			if last {
				res.TornTail = true
				continue
			}
			return res, fmt.Errorf("segment %d: %w", seg, err)
		}
		off := segHeaderSize
		for off < len(data) {
			rec, n, err := decodeRecord(data[off:])
			if err != nil {
				if last {
					res.TornTail = !allZero(data[off:])
					break
				}
				return res, fmt.Errorf("segment %d offset %d: %w", seg, off, err)
			}
			if rec.Type == RecRoot {
				res.Roots++
				if uint32(len(leaves)) != rec.Count {
					return res, fmt.Errorf("segment %d offset %d: root covers %d records, batch has %d",
						seg, off, rec.Count, len(leaves))
				}
				if haveRoot && rec.Prev != prevRoot {
					return res, fmt.Errorf("segment %d offset %d: root chain broken (prev mismatch)", seg, off)
				}
				if got := merkleFold(leaves); got != rec.Root {
					return res, fmt.Errorf("segment %d offset %d: batch root mismatch", seg, off)
				}
				prevRoot, haveRoot = rec.Root, true
				leaves = leaves[:0]
			} else {
				res.Records++
				leaves = append(leaves, leafHash(data[off+frameHeaderSize:off+n]))
			}
			off += n
		}
	}
	res.Unrooted = uint64(len(leaves))
	return res, nil
}
