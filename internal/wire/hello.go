package wire

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
)

// The session handshake (DESIGN.md §8): every connection between two
// processes opens with a HELLO carrying the sender's wire version, lane
// fanout, ring-membership hash, and a capabilities bitmap. Peers whose
// HELLOs are incompatible are rejected at connect time with a typed
// *HandshakeError instead of misrouting frames at runtime (a WriteLanes
// mismatch used to silently collapse ring traffic onto the wrong lane).

// HelloVersion is the wire protocol version this build speaks. History:
// v1 was the seed codec, v2 added the lane byte to the frame header,
// v3 added the session handshake, v4 made frame trains (up to
// MaxFrameEnvelopes envelopes per frame, DESIGN.md §9) part of the
// format every peer decodes. Peers must match exactly: any other
// version is refused with a *HandshakeError naming "wire version".
const HelloVersion uint16 = 4

// Capability bits advertised in Hello.Capabilities. The negotiated
// capability set of a session is the intersection of both HELLOs;
// unknown bits are ignored, so future builds can extend the bitmap
// without a version bump.
const (
	// CapLaneLinks: the sender opens one dedicated connection (or
	// queue) per ring lane toward its successor instead of multiplexing
	// every lane over a single link. A lane link's HELLO pins the link
	// to its lane (Hello.Link), and the receiver demultiplexes inbound
	// ring frames by that negotiated lane rather than trusting the
	// frame header.
	CapLaneLinks uint32 = 1 << iota
	// Bit 1 is reserved: wire v3 used it to negotiate frame trains,
	// which v4 made unconditional.
	_
)

// LinkGeneral is the Hello.Link value of a connection that is not
// pinned to a ring lane: client connections, crash-gossip/control
// traffic, and every connection of a peer without CapLaneLinks.
const LinkGeneral uint16 = 0xFFFF

// helloSize is the encoded size of a Hello body.
const helloSize = 2 + 4 + 2 + 2 + 8 + 4

// Hello is the session-opening handshake message.
type Hello struct {
	// Version is the wire protocol version (HelloVersion).
	Version uint16
	// From is the sender's process id.
	From ProcessID
	// Lanes is the sender's ring lane fanout (Config.WriteLanes). Zero
	// means lane-unaware — clients, which never originate ring frames —
	// and exempts the sender from the lane-count check.
	Lanes uint16
	// Link pins this connection to one ring lane (ring data of exactly
	// that lane travels on it), or LinkGeneral for unpinned connections.
	Link uint16
	// MembershipHash commits to the ring membership, in ring order
	// (MembershipHash). Zero means unknown and exempts the sender from
	// the membership check.
	MembershipHash uint64
	// Capabilities is the sender's capability bitmap (CapLaneLinks...).
	Capabilities uint32
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
	buf = binary.BigEndian.AppendUint16(buf, h.Link)
	buf = binary.BigEndian.AppendUint64(buf, h.MembershipHash)
	buf = binary.BigEndian.AppendUint32(buf, h.Capabilities)
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
		Link:           binary.BigEndian.Uint16(data[8:10]),
		MembershipHash: binary.BigEndian.Uint64(data[10:18]),
		Capabilities:   binary.BigEndian.Uint32(data[18:22]),
	}
	if h.From == NoProcess {
		return Hello{}, fmt.Errorf("%w: hello with zero process id", ErrCorruptFrame)
	}
	if h.Link != LinkGeneral && h.Lanes != 0 && h.Link >= h.Lanes {
		return Hello{}, fmt.Errorf("%w: hello link %d outside lane fanout %d",
			ErrCorruptFrame, h.Link, h.Lanes)
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
