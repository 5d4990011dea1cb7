// Package wire defines the protocol messages exchanged by the atomic
// storage algorithm — between clients and servers, and between servers
// along the ring — together with a compact binary codec used by the TCP
// transport. The in-memory transport carries the same Envelope values
// without serialization, so the two transports are interchangeable.
package wire

import (
	"errors"
	"fmt"

	"repro/internal/tag"
)

// ProcessID identifies a process (server or client) in the system.
// Server ids double as ring positions in the initial membership.
type ProcessID uint32

// NoProcess is the zero ProcessID; valid processes use ids >= 1.
const NoProcess ProcessID = 0

// ObjectID identifies one atomic register hosted by the cluster. A
// deployment serving a single register (as in the paper) uses object 0;
// the KV layer multiplexes many objects over the same ring.
type ObjectID uint32

// Kind discriminates protocol messages.
type Kind uint8

// Message kinds. Client/server kinds implement the paper's read and write
// procedures; ring kinds implement the pre-write/write phases; control
// kinds implement crash dissemination and recovery.
const (
	// KindWriteRequest is a client's <write, v> to any server.
	KindWriteRequest Kind = iota + 1
	// KindWriteAck is the server's <write_ack> completing a write.
	KindWriteAck
	// KindReadRequest is a client's <read> to any server.
	KindReadRequest
	// KindReadAck is the server's <read_ack, v> completing a read.
	KindReadAck
	// KindPreWrite is the ring <pre_write, v, [ts,id]> message.
	KindPreWrite
	// KindWrite is the ring <write, v, [ts,id]> message.
	KindWrite
	// KindCrash is a control message disseminating "process p crashed"
	// around the ring so that non-adjacent servers update their view.
	KindCrash
)

// String returns the wire name of k.
func (k Kind) String() string {
	switch k {
	case KindWriteRequest:
		return "write_request"
	case KindWriteAck:
		return "write_ack"
	case KindReadRequest:
		return "read_request"
	case KindReadAck:
		return "read_ack"
	case KindPreWrite:
		return "pre_write"
	case KindWrite:
		return "write"
	case KindCrash:
		return "crash"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// isValid reports whether k is a known message kind.
func (k Kind) isValid() bool {
	return k >= KindWriteRequest && k <= KindCrash
}

// Envelope flags.
const (
	// FlagValueElided marks a write-phase ring message that carries no
	// value: every server already holds the value in its pending set
	// from the pre-write phase, so re-shipping it would halve the ring's
	// usable bandwidth. Recovery and adoption writes never elide.
	FlagValueElided uint8 = 1 << iota
	// FlagPooledValue marks an envelope whose Value is backed by a
	// buffer from this process's shared pool (GetBuffer). It is a local
	// ownership mark, never part of the wire format: the encoder masks
	// it out and the decoder clears it, setting it only when it copied
	// the value into a pooled buffer itself. Whoever drops the last
	// reference to a pooled value should return it with PutValue;
	// failing to do so is safe (the buffer falls to the GC), returning a
	// buffer that is still referenced elsewhere is not.
	FlagPooledValue
)

// Envelope is one protocol message. Not every field is meaningful for
// every kind; Validate documents which fields each kind uses.
type Envelope struct {
	// Kind discriminates the message.
	Kind Kind
	// Flags carries kind-specific flag bits (FlagValueElided).
	Flags uint8
	// Object names the register the message concerns.
	Object ObjectID
	// Tag is the write version carried by ring messages and acks.
	Tag tag.Tag
	// Origin is the server that originated a ring message, or the
	// crashed process in a KindCrash message.
	Origin ProcessID
	// Epoch counts ring reconfigurations; KindCrash messages carry the
	// epoch in which the crash was detected so duplicates are dropped.
	Epoch uint32
	// ReqID correlates a client request with its ack. The client
	// chooses it; the server echoes it.
	ReqID uint64
	// Value is the register payload. The slice is owned by the
	// envelope; producers must not mutate it after sending.
	Value []byte
}

// Validate checks structural invariants of the envelope for its kind.
func (e *Envelope) Validate() error {
	if !e.Kind.isValid() {
		return fmt.Errorf("wire: invalid kind %d", uint8(e.Kind))
	}
	switch e.Kind {
	case KindPreWrite, KindWrite:
		if e.Origin == NoProcess {
			return fmt.Errorf("wire: %s without origin", e.Kind)
		}
		if e.Tag.IsZero() {
			return fmt.Errorf("wire: %s with zero tag", e.Kind)
		}
	case KindCrash:
		if e.Origin == NoProcess {
			return errors.New("wire: crash notice without subject")
		}
	}
	return nil
}

// Clone returns a deep copy of the envelope (the Value slice is copied).
// The copy is not pool-owned, whatever the original was.
func (e *Envelope) Clone() Envelope {
	c := *e
	c.Flags &^= FlagPooledValue
	if e.Value != nil {
		c.Value = append([]byte(nil), e.Value...)
	}
	return c
}

// ValuePooled reports whether the envelope carries a pool-owned value.
func (e *Envelope) ValuePooled() bool {
	return e.Flags&FlagPooledValue != 0 && len(e.Value) > 0
}

// RetireValue returns the envelope's pool-owned value buffer (if any) to
// the shared pool and drops the reference. Callers invoke it only when
// the envelope's value was never handed to anyone else.
func (e *Envelope) RetireValue() {
	if e.ValuePooled() {
		PutValue(e.Value)
	}
	e.Value = nil
	e.Flags &^= FlagPooledValue
}

// IsRing reports whether the envelope travels server-to-server along the
// ring (as opposed to client/server traffic).
func (e *Envelope) IsRing() bool {
	return e.Kind == KindPreWrite || e.Kind == KindWrite || e.Kind == KindCrash
}

// String renders a short human-readable form for logs.
func (e *Envelope) String() string {
	return fmt.Sprintf("{%s obj=%d tag=%s origin=%d req=%d |v|=%d}",
		e.Kind, e.Object, e.Tag, e.Origin, e.ReqID, len(e.Value))
}

// MaxFrameEnvelopes bounds the number of envelopes one frame may carry.
// Beyond the classic pair (a primary plus a piggyback), a "frame train"
// lets a saturated ring lane amortize its per-frame costs over many
// protocol messages (DESIGN.md §9).
const MaxFrameEnvelopes = 16

// Frame is the unit the transports move: a train of one or more
// envelopes. A frame with a second envelope is the classic piggybacked
// ring frame: the write-phase message of an earlier write rides along
// with a pre-write-phase message (paper §4.2, key to the 1-write-per-
// round throughput). Frames with more envelopes generalize the same
// amortization one level up (wire v4): up to MaxFrameEnvelopes ring
// messages share one header, one channel handoff, and one transport
// send.
type Frame struct {
	// Env is the primary envelope; always present.
	Env Envelope
	// Piggyback is an optional second ring envelope. It always belongs
	// to the same lane as Env (a lane only piggybacks its own queue).
	Piggyback *Envelope
	// Extra holds the train members after the second envelope (wire v4).
	// Like the piggyback, every entry is a ring envelope of the frame's
	// lane. A non-empty Extra requires a non-nil Piggyback (the decoder
	// always fills the slots in order).
	Extra []Envelope
	// Lane is the ring lane the frame belongs to (hash(ObjectID) mod the
	// lane count, identical on every server of a cluster). Servers use
	// it to demultiplex inbound ring traffic to the owning lane without
	// touching the envelopes. Client-originated frames leave it zero;
	// servers route those by object hash instead.
	Lane uint8
}

// NewFrame wraps a single envelope in a frame.
func NewFrame(env Envelope) Frame { return Frame{Env: env} }

// NewLaneFrame wraps a single envelope in a frame tagged with a lane.
func NewLaneFrame(env Envelope, lane uint8) Frame {
	return Frame{Env: env, Lane: lane}
}

// Retire returns every pool-owned value buffer the frame carries to the
// shared pool (see Envelope.RetireValue for the ownership contract).
// For frames that are dropped without any envelope being processed.
func (f *Frame) Retire() {
	f.Env.RetireValue()
	if f.Piggyback != nil {
		f.Piggyback.RetireValue()
	}
	for i := range f.Extra {
		f.Extra[i].RetireValue()
	}
}

// EnvelopeCount returns the number of envelopes the frame carries.
func (f *Frame) EnvelopeCount() int {
	n := 1 + len(f.Extra)
	if f.Piggyback != nil {
		n++
	}
	return n
}

// Envelopes returns the envelopes carried by the frame, primary first.
func (f *Frame) Envelopes() []Envelope {
	if f.Piggyback == nil && len(f.Extra) == 0 {
		return []Envelope{f.Env}
	}
	out := make([]Envelope, 0, f.EnvelopeCount())
	out = append(out, f.Env)
	if f.Piggyback != nil {
		out = append(out, *f.Piggyback)
	}
	return append(out, f.Extra...)
}

// Validate checks the frame and every envelope in it.
func (f *Frame) Validate() error {
	if err := f.Env.Validate(); err != nil {
		return err
	}
	if f.Piggyback != nil {
		if err := f.Piggyback.Validate(); err != nil {
			return fmt.Errorf("piggyback: %w", err)
		}
		if !f.Piggyback.IsRing() || !f.Env.IsRing() {
			return errors.New("wire: piggybacking is only defined for ring messages")
		}
	}
	if len(f.Extra) > 0 {
		if f.Piggyback == nil {
			return errors.New("wire: train with empty second slot")
		}
		if f.EnvelopeCount() > MaxFrameEnvelopes {
			return fmt.Errorf("wire: train of %d envelopes exceeds %d", f.EnvelopeCount(), MaxFrameEnvelopes)
		}
		for i := range f.Extra {
			if err := f.Extra[i].Validate(); err != nil {
				return fmt.Errorf("train envelope %d: %w", i+2, err)
			}
			if !f.Extra[i].IsRing() {
				return errors.New("wire: frame trains are only defined for ring messages")
			}
		}
	}
	return nil
}

// WireSize returns the encoded size of the frame in bytes, used by the
// simulator's bandwidth accounting and by the codec to size buffers.
func (f *Frame) WireSize() int {
	n := frameHeaderSize + envelopeHeaderSize + len(f.Env.Value)
	if f.Piggyback != nil {
		n += envelopeHeaderSize + len(f.Piggyback.Value)
	}
	for i := range f.Extra {
		n += envelopeHeaderSize + len(f.Extra[i].Value)
	}
	return n
}
