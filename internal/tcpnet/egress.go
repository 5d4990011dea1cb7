package tcpnet

import (
	"io"
	"math"
	"net"

	"repro/internal/wire"
)

// egressWriter assembles one coalesced batch of already-encoded frames
// and flushes it with a single vectored write. Frames arrive as pooled
// wire.EncodedFrame buffers (encoded at enqueue time on the producing
// goroutine, DESIGN.md §14); the writer's job is only to gather them
// into an iovec and hand them to the kernel, releasing each buffer once
// the kernel has consumed its bytes.
//
// The writer is a hybrid: encoded frames of at least cutoff bytes
// become their own iovec entry (zero copy — the kernel reads straight
// out of the pooled encode buffer), while smaller frames are copied
// into a pooled slab that rides the same iovec as one entry. The copy
// for a tiny frame is cheaper than the kernel's per-iovec bookkeeping
// (see EXPERIMENTS.md PR 9 — on loopback, 128 separate 64 B iovecs
// writev ~50% slower than one memcpy'd slab), so the cutoff buys the
// best of both: small control frames coalesce, bulk values ship with
// zero copies. A cutoff above every frame size sends everything through
// the slab — exactly one Write per batch.
type egressWriter struct {
	conn net.Conn
	tcp  *net.TCPConn // non-nil when the kernel writev path applies

	cutoff int

	// iovArr is the iovec's stable backing array; bufs is the slice
	// header handed to net.Buffers.WriteTo, which consumes it in place.
	// Keeping them separate (and bufs a field) is what makes the flush
	// allocation-free: WriteTo advances the header it is given, so a
	// freshly built local would re-grow — and escape — every batch.
	iovArr [][]byte
	bufs   net.Buffers

	// slab holds the copy runs of sub-cutoff frames; slabMark is the
	// start of the run not yet sealed into the iovec. Growth may move
	// the slab, but sealed runs keep pointing at the old array, whose
	// bytes are already final — only the open run tracks the tip.
	slab     *[]byte
	slabMark int

	// pend holds the frames whose buffers the iovec references; they
	// are released only after the kernel consumed the batch. Slab-copied
	// frames are released at copy time instead.
	pend []*wire.EncodedFrame

	// batched counts encoded bytes gathered since the last flush.
	batched int
}

func newEgressWriter(conn net.Conn, cutoff int) *egressWriter {
	tcp, _ := conn.(*net.TCPConn)
	return &egressWriter{
		conn:   conn,
		tcp:    tcp,
		cutoff: cutoff,
		iovArr: make([][]byte, 0, 64),
		slab:   wire.GetBuffer(),
		pend:   make([]*wire.EncodedFrame, 0, 64),
	}
}

// add gathers one encoded frame into the open batch, taking ownership
// of the caller's reference. Wire order is preserved either way: a
// zero-copy frame first seals the open slab run into the iovec, so
// entries appear in exactly the order frames were added.
func (w *egressWriter) add(ef *wire.EncodedFrame) {
	b := ef.Bytes()
	w.batched += len(b)
	if len(b) < w.cutoff {
		*w.slab = append(*w.slab, b...)
		ef.Release()
		return
	}
	w.sealRun()
	w.iovArr = append(w.iovArr, b)
	w.pend = append(w.pend, ef)
}

// sealRun turns the open slab run into one iovec entry. The full slice
// expression caps the entry so later slab appends can never write into
// a sealed run's view.
func (w *egressWriter) sealRun() {
	s := *w.slab
	if len(s) > w.slabMark {
		w.iovArr = append(w.iovArr, s[w.slabMark:len(s):len(s)])
		w.slabMark = len(s)
	}
}

// flush writes the gathered batch to the connection and releases every
// pending frame buffer, successful or not — after flush the batch is
// gone either way, and on error the caller tears the connection down.
func (w *egressWriter) flush() error {
	w.sealRun()
	var err error
	switch {
	case len(w.iovArr) == 0:
		// nothing gathered
	case len(w.iovArr) == 1:
		// Degenerate batch (everything in one run): a plain write.
		err = writeFull(w.conn, w.iovArr[0])
	case w.tcp != nil:
		// One writev for the whole batch. The TCP fast path loops on
		// partial writes down in the poller, so a short write never
		// surfaces here with a nil error.
		w.bufs = net.Buffers(w.iovArr)
		_, err = w.bufs.WriteTo(w.tcp)
	default:
		// Generic connections (tests, wrappers) get a manual gather
		// loop: net.Buffers' fallback issues one Write per buffer but
		// trusts the writer to be all-or-error, which fault-injection
		// conns deliberately are not. writeFull advances past short
		// writes, keeping frames intact byte for byte.
		for _, b := range w.iovArr {
			if err = writeFull(w.conn, b); err != nil {
				break
			}
		}
	}
	w.reset()
	return err
}

// reset releases the batch's buffers and clears the gather state for
// reuse, keeping all capacity.
func (w *egressWriter) reset() {
	for i, ef := range w.pend {
		ef.Release()
		w.pend[i] = nil
	}
	w.pend = w.pend[:0]
	// Drop the byte views too: a retained view would pin a pooled
	// buffer already back in rotation.
	for i := range w.iovArr {
		w.iovArr[i] = nil
	}
	w.iovArr = w.iovArr[:0]
	w.bufs = nil
	*w.slab = (*w.slab)[:0]
	w.slabMark = 0
	w.batched = 0
}

// close returns the writer's pooled state. Any un-flushed batch is
// released unwritten (the connection is gone).
func (w *egressWriter) close() {
	w.reset()
	wire.PutBuffer(w.slab)
	w.slab = nil
}

// writeFull writes b completely, advancing past partial writes. A
// writer that reports progress without an error (fault-injection conns)
// is retried from the unwritten tail; zero progress without an error
// becomes io.ErrShortWrite rather than a spin.
func writeFull(c net.Conn, b []byte) error {
	for len(b) > 0 {
		n, err := c.Write(b)
		if err != nil {
			return err
		}
		if n <= 0 {
			return io.ErrShortWrite
		}
		b = b[n:]
	}
	return nil
}

// EgressBench drives the package's real egress writer for the
// repository benchmark (benchmark/probes.go), so its egress numbers
// measure the shipping batch-assembly and flush code, not a
// reimplementation.
type EgressBench struct {
	w *egressWriter
}

// NewEgressBench returns a bench harness flushing to conn. cutoff is
// the writer's hybrid threshold (0 is the pure zero-copy path);
// vectored=false selects the copy-everything policy, a cutoff above
// any frame.
func NewEgressBench(conn net.Conn, vectored bool, cutoff int) *EgressBench {
	if !vectored {
		cutoff = math.MaxInt
	}
	return &EgressBench{w: newEgressWriter(conn, cutoff)}
}

// FlushBatch gathers and flushes one batch. Each frame is retained
// first so the caller's references survive the flush and the same
// frames can be flushed again next iteration.
func (eb *EgressBench) FlushBatch(frames []*wire.EncodedFrame) error {
	for _, ef := range frames {
		ef.Retain()
		eb.w.add(ef)
	}
	return eb.w.flush()
}

// Close releases the harness's pooled state.
func (eb *EgressBench) Close() { eb.w.close() }
