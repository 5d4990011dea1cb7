package wire

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
)

// The session handshake (DESIGN.md §8): every connection between two
// processes opens with a HELLO carrying the sender's wire version, lane
// count and ring-membership hash. Peers whose HELLOs are incompatible
// are rejected at connect time with a typed *HandshakeError instead of
// misrouting frames at runtime. Servers assert one lane, so the lane
// check refuses an older server binary that was started with several.

// HelloVersion is the wire protocol version this build speaks. History:
// v1 was the seed codec, v2 added the lane byte to the frame header,
// v3 added the session handshake, v4 made frame trains (up to
// MaxFrameEnvelopes envelopes per frame, DESIGN.md §9) part of the
// format every peer decodes, v5 dropped the HELLO's link pin and
// capability bitmap (one connection per peer). Peers
// must match exactly: any other version is refused with a
// *HandshakeError naming "wire version", so a new feature arrives with
// a version bump, not a negotiated bit.
const HelloVersion uint16 = 5

// helloSize is the encoded size of a Hello body.
const helloSize = 2 + 4 + 2 + 8

// Hello is the session-opening handshake message.
type Hello struct {
	// Version is the wire protocol version (HelloVersion).
	Version uint16
	// From is the sender's process id.
	From ProcessID
	// Lanes is the sender's ring lane count: 1 for every server of this
	// build (core.DefaultWriteLanes). Zero means lane-unaware — clients,
	// which never originate ring frames — and exempts the sender from
	// the lane-count check. Older server binaries asserted how many
	// lanes they were started with, so a multi-lane one is refused.
	Lanes uint16
	// MembershipHash commits to the ring membership, in ring order
	// (MembershipHash). Zero means unknown and exempts the sender from
	// the membership check.
	MembershipHash uint64
}

// MembershipHash hashes a ring membership, in ring order, for the HELLO
// membership check. Two clusters that disagree on the member set or its
// order hash differently.
func MembershipHash(members []ProcessID) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, m := range members {
		binary.BigEndian.PutUint32(buf[:], uint32(m))
		_, _ = h.Write(buf[:])
	}
	return h.Sum64()
}

// AppendHello encodes h onto buf and returns the extended slice.
func AppendHello(buf []byte, h *Hello) []byte {
	buf = binary.BigEndian.AppendUint16(buf, h.Version)
	buf = binary.BigEndian.AppendUint32(buf, uint32(h.From))
	buf = binary.BigEndian.AppendUint16(buf, h.Lanes)
	buf = binary.BigEndian.AppendUint64(buf, h.MembershipHash)
	return buf
}

// HelloWireSize returns the encoded size of a Hello body.
func HelloWireSize() int { return helloSize }

// DecodeHello decodes a Hello body. Trailing bytes beyond the fields
// this build knows are ignored, so a future version may extend the
// HELLO and still be refused by version rather than as corrupt; a short
// body is corrupt.
func DecodeHello(data []byte) (Hello, error) {
	if len(data) < helloSize {
		return Hello{}, fmt.Errorf("%w: hello body %d bytes, want >= %d",
			ErrCorruptFrame, len(data), helloSize)
	}
	h := Hello{
		Version:        binary.BigEndian.Uint16(data[0:2]),
		From:           ProcessID(binary.BigEndian.Uint32(data[2:6])),
		Lanes:          binary.BigEndian.Uint16(data[6:8]),
		MembershipHash: binary.BigEndian.Uint64(data[8:16]),
	}
	if h.From == NoProcess {
		return Hello{}, fmt.Errorf("%w: hello with zero process id", ErrCorruptFrame)
	}
	return h, nil
}

// HandshakeError reports a session-level incompatibility discovered
// during the HELLO exchange. It is typed so callers can distinguish
// "this peer is misconfigured, do not retry" from transient dial
// failures (errors.As).
type HandshakeError struct {
	// Field names the mismatched HELLO field: "wire version", "lanes",
	// or "membership".
	Field string
	// Local and Remote are the two sides' values of that field.
	Local, Remote uint64
}

// Error implements error.
func (e *HandshakeError) Error() string {
	return fmt.Sprintf("wire: handshake %s mismatch: local %d, peer %d",
		e.Field, e.Local, e.Remote)
}

// CheckCompatible validates a peer's HELLO against the local one,
// returning a *HandshakeError naming the first incompatible field. The
// check is symmetric: both ends of a connection reach the same verdict,
// so the dialer can reconstruct the acceptor's rejection locally from
// the acceptor's HELLO. Zero Lanes or MembershipHash on either side
// skips that check (lane-unaware clients, membership-agnostic tools).
func (h *Hello) CheckCompatible(remote *Hello) error {
	if h.Version != remote.Version {
		return &HandshakeError{Field: "wire version", Local: uint64(h.Version), Remote: uint64(remote.Version)}
	}
	if h.Lanes != 0 && remote.Lanes != 0 && h.Lanes != remote.Lanes {
		return &HandshakeError{Field: "lanes", Local: uint64(h.Lanes), Remote: uint64(remote.Lanes)}
	}
	if h.MembershipHash != 0 && remote.MembershipHash != 0 && h.MembershipHash != remote.MembershipHash {
		return &HandshakeError{Field: "membership", Local: h.MembershipHash, Remote: remote.MembershipHash}
	}
	return nil
}
