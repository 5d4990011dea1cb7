package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/tag"
)

// Binary layout (big endian):
//
//	frame header:
//	  uint32  total length of the rest of the frame
//	  uint8   envelope count (1..MaxFrameEnvelopes) | frameV2Bit
//	  uint8   lane
//	per envelope:
//	  uint8   kind
//	  uint8   flags
//	  uint32  object
//	  uint64  tag.ts
//	  uint32  tag.id
//	  uint32  origin
//	  uint32  epoch
//	  uint64  reqID
//	  uint32  value length, followed by the value bytes
const (
	frameHeaderSize    = 4 + 1 + 1
	envelopeHeaderSize = 1 + 1 + 4 + 8 + 4 + 4 + 4 + 8 + 4
)

// frameV2Bit is always set in the count byte: it is what distinguishes
// this header from the seed's lane-less v1 header (a plain count byte),
// which the decoder rejects as corrupt.
const frameV2Bit = 0x80

// MaxValueSize bounds a single register value; larger values must be
// chunked by the application. It also bounds decoder allocations so a
// corrupt length prefix cannot trigger a huge allocation.
const MaxValueSize = 16 << 20

// MaxTrainValueBytes bounds the total value bytes of a train's tail
// (every envelope beyond the classic primary+piggyback pair). The
// first two envelopes may carry MaxValueSize each, so a legal frame
// never exceeds MaxFrameSize — which is what keeps the reader's
// pre-allocation guard near two values instead of growing
// MaxFrameEnvelopes-fold. A queue handler filling a train must respect
// it; in practice train tails are small (elided writes and typical
// values), and a train that would pass the cap is just closed early.
const MaxTrainValueBytes = 4 << 20

// MaxFrameSize is the largest frame the codec will encode or decode.
const MaxFrameSize = frameHeaderSize + MaxFrameEnvelopes*envelopeHeaderSize +
	2*MaxValueSize + MaxTrainValueBytes

// Codec errors.
var (
	// ErrFrameTooLarge is returned when a frame exceeds MaxFrameSize.
	ErrFrameTooLarge = errors.New("wire: frame too large")
	// ErrCorruptFrame is returned when a frame fails structural checks.
	ErrCorruptFrame = errors.New("wire: corrupt frame")
)

// AppendEnvelope encodes env onto buf and returns the extended slice.
func AppendEnvelope(buf []byte, env *Envelope) []byte {
	buf = append(buf, byte(env.Kind), env.Flags)
	buf = binary.BigEndian.AppendUint32(buf, uint32(env.Object))
	buf = binary.BigEndian.AppendUint64(buf, env.Tag.TS)
	buf = binary.BigEndian.AppendUint32(buf, env.Tag.ID)
	buf = binary.BigEndian.AppendUint32(buf, uint32(env.Origin))
	buf = binary.BigEndian.AppendUint32(buf, env.Epoch)
	buf = binary.BigEndian.AppendUint64(buf, env.ReqID)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(env.Value)))
	buf = append(buf, env.Value...)
	return buf
}

// AppendFrame encodes f onto buf and returns the extended slice. The
// length prefix is backfilled in place, so the encoder performs no
// intermediate allocation: with a reused buf the call is allocation-free.
func AppendFrame(buf []byte, f *Frame) ([]byte, error) {
	count := f.EnvelopeCount()
	if count > MaxFrameEnvelopes {
		return nil, fmt.Errorf("%w: %d envelopes", ErrFrameTooLarge, count)
	}
	if len(f.Env.Value) > MaxValueSize ||
		(f.Piggyback != nil && len(f.Piggyback.Value) > MaxValueSize) {
		return nil, ErrFrameTooLarge
	}
	tail := 0
	for i := range f.Extra {
		tail += len(f.Extra[i].Value)
	}
	if tail > MaxTrainValueBytes {
		return nil, fmt.Errorf("%w: train tail carries %d value bytes", ErrFrameTooLarge, tail)
	}
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, byte(count)|frameV2Bit, f.Lane)
	buf = AppendEnvelope(buf, &f.Env)
	if f.Piggyback != nil {
		buf = AppendEnvelope(buf, f.Piggyback)
	}
	for i := range f.Extra {
		buf = AppendEnvelope(buf, &f.Extra[i])
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return buf, nil
}

// AppendTo encodes the frame (length prefix included) onto buf and
// returns the extended slice. It is the allocation-free encoder of the
// hot path: callers keep one scratch buffer (their own, or one from
// GetBuffer) and re-encode into it.
func (f *Frame) AppendTo(buf []byte) ([]byte, error) {
	return AppendFrame(buf, f)
}

// valueMode selects how a decoded envelope's Value relates to the input
// buffer.
type valueMode uint8

const (
	// valueCopy copies each value into a fresh heap slice of exactly
	// its length (cap == len): the frame owns its memory with no strings
	// attached, and a retained value pins nothing beyond its own bytes.
	valueCopy valueMode = iota
	// valueAlias keeps the Value aliasing the input buffer; the caller
	// owns the lifetime contract.
	valueAlias
)

// decodeEnvelopeInto consumes one envelope from data into env according
// to the value mode, returning the remainder.
func decodeEnvelopeInto(env *Envelope, data []byte, mode valueMode) ([]byte, error) {
	if len(data) < envelopeHeaderSize {
		return nil, fmt.Errorf("%w: truncated envelope header", ErrCorruptFrame)
	}
	env.Kind = Kind(data[0])
	env.Flags = data[1]
	env.Object = ObjectID(binary.BigEndian.Uint32(data[2:6]))
	env.Tag = tag.Tag{
		TS: binary.BigEndian.Uint64(data[6:14]),
		ID: binary.BigEndian.Uint32(data[14:18]),
	}
	env.Origin = ProcessID(binary.BigEndian.Uint32(data[18:22]))
	env.Epoch = binary.BigEndian.Uint32(data[22:26])
	env.ReqID = binary.BigEndian.Uint64(data[26:34])
	vlen := binary.BigEndian.Uint32(data[34:38])
	if vlen > MaxValueSize {
		return nil, fmt.Errorf("%w: value length %d", ErrFrameTooLarge, vlen)
	}
	if !env.Kind.isValid() {
		return nil, fmt.Errorf("%w: unknown kind %d", ErrCorruptFrame, uint8(env.Kind))
	}
	data = data[envelopeHeaderSize:]
	if uint32(len(data)) < vlen {
		return nil, fmt.Errorf("%w: truncated value", ErrCorruptFrame)
	}
	env.Value = nil
	if vlen > 0 {
		if mode == valueAlias {
			env.Value = data[:vlen:vlen]
		} else {
			env.Value = make([]byte, vlen)
			copy(env.Value, data[:vlen])
		}
	}
	return data[vlen:], nil
}

// decodeEnvelope consumes one envelope from data, returning the remainder.
func decodeEnvelope(data []byte) (Envelope, []byte, error) {
	var env Envelope
	rest, err := decodeEnvelopeInto(&env, data, valueCopy)
	if err != nil {
		return Envelope{}, nil, err
	}
	return env, rest, nil
}

// DecodeFrameBody decodes the body of a frame (everything after the
// uint32 length prefix). Value slices are copied out of body into
// exact-size heap slices, so the returned frame owns its memory.
func DecodeFrameBody(body []byte) (Frame, error) {
	var f Frame
	if err := f.decodeFrom(body, valueCopy); err != nil {
		return Frame{}, err
	}
	return f, nil
}

// DecodeFrom decodes a frame body into f without copying: Value slices
// alias body, so the frame is only valid while body is not reused. A
// previously decoded-into frame's Piggyback allocation is reused, making
// steady-state decoding allocation-free for a reused *Frame. Callers that
// retain values past the buffer's lifetime must copy them (Clone).
func (f *Frame) DecodeFrom(body []byte) error {
	return f.decodeFrom(body, valueAlias)
}

func (f *Frame) decodeFrom(body []byte, mode valueMode) error {
	if len(body) < 1 {
		f.resetDecode()
		return fmt.Errorf("%w: empty body", ErrCorruptFrame)
	}
	if body[0]&frameV2Bit == 0 {
		f.resetDecode()
		return fmt.Errorf("%w: lane-less v1 header", ErrCorruptFrame)
	}
	if len(body) < 2 {
		f.resetDecode()
		return fmt.Errorf("%w: header without lane byte", ErrCorruptFrame)
	}
	count := int(body[0] &^ frameV2Bit)
	if count < 1 || count > MaxFrameEnvelopes {
		f.resetDecode()
		return fmt.Errorf("%w: envelope count %d", ErrCorruptFrame, count)
	}
	f.Lane = body[1]
	rest, err := decodeEnvelopeInto(&f.Env, body[2:], mode)
	if err != nil {
		f.resetDecode()
		return err
	}
	if count >= 2 {
		pb := f.Piggyback
		if pb == nil {
			pb = new(Envelope)
		}
		rest, err = decodeEnvelopeInto(pb, rest, mode)
		if err != nil {
			f.resetDecode()
			return err
		}
		f.Piggyback = pb
	} else {
		f.Piggyback = nil
	}
	f.clearExtra()
	if n := count - 2; n > 0 {
		// Reuse the previous decode's Extra backing array so steady-state
		// train decoding stays allocation-free for a reused *Frame.
		if cap(f.Extra) >= n {
			f.Extra = f.Extra[:n]
		} else {
			f.Extra = make([]Envelope, n)
		}
		tail := 0
		for i := range f.Extra {
			rest, err = decodeEnvelopeInto(&f.Extra[i], rest, mode)
			if err != nil {
				f.resetDecode()
				return err
			}
			tail += len(f.Extra[i].Value)
		}
		// Mirror the encoder's train-tail byte bound, so anything the
		// decoder accepts re-encodes.
		if tail > MaxTrainValueBytes {
			f.resetDecode()
			return fmt.Errorf("%w: train tail carries %d value bytes", ErrFrameTooLarge, tail)
		}
	}
	if len(rest) != 0 {
		f.resetDecode()
		return fmt.Errorf("%w: %d trailing bytes", ErrCorruptFrame, len(rest))
	}
	return nil
}

// clearExtra zeroes and truncates the Extra slice, dropping any value
// references from a previous decode while keeping the backing array for
// reuse.
func (f *Frame) clearExtra() {
	for i := range f.Extra {
		f.Extra[i] = Envelope{}
	}
	f.Extra = f.Extra[:0]
}

// resetDecode zeroes the frame after a failed decode so no field — a
// partially overwritten header, a Value still aliasing the input
// buffer, or a previous decode's piggyback or train tail — survives
// into error handling.
func (f *Frame) resetDecode() {
	f.Env = Envelope{}
	f.Piggyback = nil
	f.clearExtra()
	f.Lane = 0
}

// bufPool holds the scratch buffers shared by the transports: encode
// buffers, egress slabs, reader bodies and handshakes. Decoded values
// never come from it.
// Buffers start at 4 KiB — enough for a coalesced batch of typical
// frames — and grow in place; oversized buffers (beyond 1 MiB) are not
// returned to the pool so one huge value does not pin memory forever.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// maxPooledBuffer bounds the capacity of buffers kept by the pool.
const maxPooledBuffer = 1 << 20

// GetBuffer returns a zero-length scratch buffer from the shared pool.
// Release it with PutBuffer when the encoded or decoded bytes are no
// longer referenced.
func GetBuffer() *[]byte {
	b := bufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// PutBuffer returns a buffer obtained from GetBuffer to the pool.
func PutBuffer(b *[]byte) {
	if b == nil || cap(*b) > maxPooledBuffer {
		return
	}
	bufPool.Put(b)
}

// Writer serializes frames onto an io.Writer with length-prefixed framing.
// It is not safe for concurrent use; callers serialize through a single
// sender goroutine (which the transports do).
type Writer struct {
	w   *bufio.Writer
	buf []byte
}

// NewWriter returns a Writer emitting frames to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// WriteFrame encodes f and flushes it to the underlying writer.
func (fw *Writer) WriteFrame(f *Frame) error {
	var err error
	fw.buf, err = AppendFrame(fw.buf[:0], f)
	if err != nil {
		return err
	}
	if _, err := fw.w.Write(fw.buf); err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	if err := fw.w.Flush(); err != nil {
		return fmt.Errorf("wire: flush frame: %w", err)
	}
	return nil
}

// Reader decodes length-prefixed frames from an io.Reader. It is not safe
// for concurrent use. The frame body is read into a buffer taken lazily
// from the shared pool; call Close when done with the Reader to return
// it (decoded frames own their memory, so they outlive the Reader).
type Reader struct {
	r   *bufio.Reader
	buf *[]byte
}

// NewReader returns a Reader consuming frames from r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// NewReaderSize is NewReader with an explicit bufio buffer size.
func NewReaderSize(r io.Reader, size int) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, size)}
}

// Close returns the Reader's pooled body buffer. The Reader must not be
// used afterwards.
func (fr *Reader) Close() {
	if fr.buf != nil {
		PutBuffer(fr.buf)
		fr.buf = nil
	}
}

// ReadFrame reads and decodes the next frame. It returns io.EOF when the
// stream ends cleanly on a frame boundary and io.ErrUnexpectedEOF when it
// ends mid-frame.
func (fr *Reader) ReadFrame() (Frame, error) {
	var lenbuf [4]byte
	if _, err := io.ReadFull(fr.r, lenbuf[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return Frame{}, io.EOF
		}
		return Frame{}, fmt.Errorf("wire: read frame length: %w", err)
	}
	n := binary.BigEndian.Uint32(lenbuf[:])
	if n > MaxFrameSize {
		return Frame{}, fmt.Errorf("%w: body length %d", ErrFrameTooLarge, n)
	}
	if fr.buf == nil {
		fr.buf = GetBuffer()
	}
	if cap(*fr.buf) < int(n) {
		*fr.buf = make([]byte, n)
	}
	body := (*fr.buf)[:n]
	if _, err := io.ReadFull(fr.r, body); err != nil {
		return Frame{}, fmt.Errorf("wire: read frame body: %w", err)
	}
	return DecodeFrameBody(body)
}
