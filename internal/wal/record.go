// Package wal is the durable write-ahead log behind the ring server:
// one segmented log per server whose fsync is amortized over every
// lane's frame trains (DESIGN.md §13). Records are length-prefixed and
// CRC32C-framed with a versioned header; appends stage into an
// in-memory lane buffer and reach the file only at a sync pass, which
// writes every dirty lane's batch in place over a zero-filled run and
// covers them all with one file sync. A killed process therefore loses
// exactly what a crashed machine would — everything after the last
// covering sync — even when the test runs on a real filesystem.
package wal

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/tag"
	"repro/internal/wire"
)

// RecordType discriminates the five WAL record kinds. The numbering is
// part of the on-disk format; new kinds append, existing ones never
// renumber.
type RecordType uint8

const (
	// RecInit logs a locally initiated write at ring-commit time: the
	// pre-write's tag, the requesting client, and the value. Synced
	// before the initiation frame leaves, so a restart can
	// re-circulate the pre-write instead of leaving ghost barriers at
	// peers that logged it.
	RecInit RecordType = 1
	// RecPreWrite logs a forwarded pre-write as it enters the pending
	// set, synced before the forward leaves this server.
	RecPreWrite RecordType = 2
	// RecWrite logs a write-phase apply. The value is elided
	// (FlagHasValue clear) when the covering RecInit/RecPreWrite already
	// carries it; replay resolves elided writes from the replayed
	// pending set, mirroring the wire protocol's value elision.
	RecWrite RecordType = 3
	// RecAck logs that the client ack for an own write was issued; it
	// only trims replayed retransmission. Losing one costs a duplicate
	// ack, never an atomicity violation.
	RecAck RecordType = 4
	// RecRoot is the tamper-evident audit record: the Merkle root over
	// the payload hashes of the records in one sync batch, chained to
	// the previous batch root. Written only with Config.MerkleRoots.
	RecRoot RecordType = 5
)

// Record flag bits (the Flags byte travels verbatim; unknown bits are
// preserved for forward compatibility).
const (
	// FlagHasValue marks a record that carries the write's value.
	FlagHasValue = 1 << 0
	// FlagPhaseWrite marks a compaction-snapshot RecInit whose write
	// already entered the write phase (value circulating, ack pending).
	FlagPhaseWrite = 1 << 1
)

// Record is one logical WAL entry. Decoded Values are freshly
// allocated and owned by the caller; encoded Values are copied into the
// lane's staging buffer at Append time and never referenced afterwards
// (the §7/§10 ownership rule: the log takes a copy, not the buffer).
type Record struct {
	Type   RecordType
	Object wire.ObjectID
	Tag    tag.Tag
	Origin wire.ProcessID
	Client wire.ProcessID
	ReqID  uint64
	Flags  uint8
	Value  []byte

	// Audit-root fields, meaningful only when Type == RecRoot.
	Count uint32   // records covered by this batch root
	Prev  [32]byte // previous batch root (chain link)
	Root  [32]byte // Merkle root over the batch's payload hashes
}

const (
	recVersion = 1

	// frameHeaderSize prefixes every record: u32 payload length then
	// u32 CRC32C (Castagnoli) of the payload.
	frameHeaderSize = 8
	// dataFixedSize is the payload size of a value-less data record:
	// version, type, flags, object, tag.TS, tag.ID, origin, client,
	// reqID, value length.
	dataFixedSize = 1 + 1 + 1 + 4 + 8 + 4 + 4 + 4 + 8 + 4
	// rootPayloadSize is the fixed payload of a RecRoot record:
	// version, type, count, prev root, batch root.
	rootPayloadSize = 1 + 1 + 4 + 32 + 32

	// MaxRecordBytes bounds a single record's payload; anything larger
	// in a length prefix is corruption, not data.
	MaxRecordBytes = 16 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Decode errors. A torn record (clean truncation mid-record) and a
// corrupt one (CRC/field mismatch) are both repaired by truncation when
// they end the newest segment, and both fatal anywhere else.
var (
	ErrTorn    = errors.New("wal: torn record")
	ErrCorrupt = errors.New("wal: corrupt record")
)

// appendRecord encodes r as one framed record at the end of buf and
// returns the extended slice. Amortized zero allocations: growth is
// absorbed by the staging buffer's capacity.
func appendRecord(buf []byte, r *Record) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // frame header, patched below
	if r.Type == RecRoot {
		buf = append(buf, recVersion, byte(r.Type))
		buf = binary.LittleEndian.AppendUint32(buf, r.Count)
		buf = append(buf, r.Prev[:]...)
		buf = append(buf, r.Root[:]...)
	} else {
		buf = append(buf, recVersion, byte(r.Type), r.Flags)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Object))
		buf = binary.LittleEndian.AppendUint64(buf, r.Tag.TS)
		buf = binary.LittleEndian.AppendUint32(buf, r.Tag.ID)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Origin))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Client))
		buf = binary.LittleEndian.AppendUint64(buf, r.ReqID)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Value)))
		buf = append(buf, r.Value...)
	}
	payload := buf[start+frameHeaderSize:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, crcTable))
	return buf
}

// decodeRecord decodes the record framed at the start of b, returning
// it with the number of bytes consumed. ErrTorn means b ends mid-record
// (repairable tail); ErrCorrupt means the frame is structurally present
// but fails the CRC or field validation.
func decodeRecord(b []byte) (Record, int, error) {
	var r Record
	if len(b) < frameHeaderSize {
		return r, 0, ErrTorn
	}
	n := binary.LittleEndian.Uint32(b)
	if n < 2 || n > MaxRecordBytes {
		return r, 0, fmt.Errorf("%w: payload length %d", ErrCorrupt, n)
	}
	if uint32(len(b)-frameHeaderSize) < n {
		return r, 0, ErrTorn
	}
	payload := b[frameHeaderSize : frameHeaderSize+int(n)]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(b[4:]) {
		return r, 0, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	if payload[0] != recVersion {
		return r, 0, fmt.Errorf("%w: unsupported record version %d", ErrCorrupt, payload[0])
	}
	r.Type = RecordType(payload[1])
	switch r.Type {
	case RecRoot:
		if len(payload) != rootPayloadSize {
			return r, 0, fmt.Errorf("%w: root payload %d bytes, want %d", ErrCorrupt, len(payload), rootPayloadSize)
		}
		r.Count = binary.LittleEndian.Uint32(payload[2:])
		copy(r.Prev[:], payload[6:38])
		copy(r.Root[:], payload[38:70])
	case RecInit, RecPreWrite, RecWrite, RecAck:
		if len(payload) < dataFixedSize {
			return r, 0, fmt.Errorf("%w: data payload %d bytes, want >= %d", ErrCorrupt, len(payload), dataFixedSize)
		}
		r.Flags = payload[2]
		r.Object = wire.ObjectID(binary.LittleEndian.Uint32(payload[3:]))
		r.Tag.TS = binary.LittleEndian.Uint64(payload[7:])
		r.Tag.ID = binary.LittleEndian.Uint32(payload[15:])
		r.Origin = wire.ProcessID(binary.LittleEndian.Uint32(payload[19:]))
		r.Client = wire.ProcessID(binary.LittleEndian.Uint32(payload[23:]))
		r.ReqID = binary.LittleEndian.Uint64(payload[27:])
		vlen := binary.LittleEndian.Uint32(payload[35:])
		if int(vlen) != len(payload)-dataFixedSize {
			return r, 0, fmt.Errorf("%w: value length %d in a %d-byte payload", ErrCorrupt, vlen, len(payload))
		}
		if vlen > 0 {
			r.Value = append([]byte(nil), payload[dataFixedSize:]...)
		}
	default:
		return r, 0, fmt.Errorf("%w: unknown record type %d", ErrCorrupt, payload[1])
	}
	return r, frameHeaderSize + int(n), nil
}

// leafHash is the audit leaf for one framed record: SHA-256 over the
// record payload (framing excluded, so a re-framed copy verifies).
func leafHash(payload []byte) [32]byte {
	return sha256.Sum256(payload)
}

// merkleFold reduces leaf hashes to their Merkle root, folding in
// place (the caller's slice is scratch). An odd node is promoted
// unpaired. Zero leaves fold to the zero root; callers never write a
// root record for an empty batch.
func merkleFold(leaves [][32]byte) [32]byte {
	if len(leaves) == 0 {
		return [32]byte{}
	}
	var pair [64]byte
	for len(leaves) > 1 {
		half := (len(leaves) + 1) / 2
		for i := 0; i < half; i++ {
			if 2*i+1 < len(leaves) {
				copy(pair[:32], leaves[2*i][:])
				copy(pair[32:], leaves[2*i+1][:])
				leaves[i] = sha256.Sum256(pair[:])
			} else {
				leaves[i] = leaves[2*i]
			}
		}
		leaves = leaves[:half]
	}
	return leaves[0]
}
