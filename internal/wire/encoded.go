package wire

import (
	"sync"
	"sync/atomic"
)

// EncodedFrame is one frame serialized into a pooled buffer, with a
// reference count deciding when the buffer returns to the pool. It is
// the currency of the zero-copy egress path (DESIGN.md §14): the
// producing goroutine encodes at enqueue time, the per-peer outbound
// queue carries the encoded bytes, and the connection writer hands the
// same bytes to the kernel as one iovec of a vectored write — no
// intermediate copy, no encoding work on the writer goroutine.
//
// Ownership follows the reference count: EncodeFrame returns the frame
// with one reference owned by the caller; every holder that passes the
// frame across a goroutine boundary while keeping its own use must
// Retain first; Release returns the buffer to the pool when the last
// reference drops. After the final Release the bytes must not be
// touched — the buffer is already being reused.
type EncodedFrame struct {
	buf  *[]byte
	refs atomic.Int32
}

// encodedPool recycles the EncodedFrame headers themselves, so the
// enqueue→flush cycle allocates neither the bytes nor the handle.
var encodedPool = sync.Pool{New: func() any { return new(EncodedFrame) }}

// encodedLive counts encoded frames handed out and not yet fully
// released. Tests use it as a leak detector: after an endpoint drains
// and closes, the count must return to its starting value.
var encodedLive atomic.Int64

// EncodedFramesLive returns the number of encoded frames currently
// alive (encoded and not yet fully released). It is a global counter
// meant for leak assertions in tests and debugging, not for control
// flow.
func EncodedFramesLive() int64 { return encodedLive.Load() }

// EncodeFrame serializes f into a pooled buffer and returns it with a
// reference count of one, owned by the caller. The frame value itself
// is not retained: the encoded copy shares no memory with f's values.
func EncodeFrame(f *Frame) (*EncodedFrame, error) {
	buf := GetBuffer()
	b, err := f.AppendTo((*buf)[:0])
	if err != nil {
		PutBuffer(buf)
		return nil, err
	}
	*buf = b
	ef := encodedPool.Get().(*EncodedFrame)
	ef.buf = buf
	ef.refs.Store(1)
	encodedLive.Add(1)
	return ef, nil
}

// Bytes returns the encoded wire bytes. Valid only while the caller
// holds a reference.
func (ef *EncodedFrame) Bytes() []byte { return *ef.buf }

// Len returns the encoded size in bytes.
func (ef *EncodedFrame) Len() int { return len(*ef.buf) }

// Retain adds a reference. Each Retain must be balanced by exactly one
// Release.
func (ef *EncodedFrame) Retain() { ef.refs.Add(1) }

// Release drops one reference; the last one returns the buffer and the
// handle to their pools. Releasing more times than retained corrupts
// the pool, so Release panics on a negative count rather than letting
// two future frames share one buffer.
func (ef *EncodedFrame) Release() {
	switch n := ef.refs.Add(-1); {
	case n == 0:
		PutBuffer(ef.buf)
		ef.buf = nil
		encodedLive.Add(-1)
		encodedPool.Put(ef)
	case n < 0:
		panic("wire: EncodedFrame over-released")
	}
}
