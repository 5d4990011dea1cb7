package transport

import (
	"container/heap"
	"sync"
	"time"

	"repro/internal/wire"
)

// This file is the in-memory network's fault-injection seam (DESIGN.md
// §15): a pluggable per-frame verdict consulted at every delivery edge,
// plus the delay line that realizes non-zero latencies. The seam is what
// the deterministic scenario runner (internal/scenario) scripts
// partitions, asymmetric loss, slow links, and reordering through — the
// network stays a dumb executor of verdicts so every policy decision
// (and every random draw behind it) lives on the injector's side, where
// it can be made reproducible from a single seed.

// FaultVerdict is the fate of one frame crossing one memnet link.
// The zero value delivers the frame normally.
type FaultVerdict struct {
	// Drop discards the frame silently: the sender's Send still
	// succeeds, exactly as a frame lost inside a real network would —
	// the failure detector says nothing, because nothing crashed.
	Drop bool
	// Delay, when positive, holds the frame on the network's delay line
	// and delivers it that much later. Frames with different delays on
	// one link overtake each other, so jittered delays double as
	// reordering.
	Delay time.Duration
}

// FaultInjector decides the fate of frames crossing a MemNetwork.
// Verdict is called on the delivering goroutine for every frame — ring
// traffic, client requests, and acks alike — with the sending and
// receiving process and the frame itself. Implementations must be safe
// for concurrent use and must not retain f past the call.
type FaultInjector interface {
	Verdict(from, to wire.ProcessID, f *wire.Frame) FaultVerdict
}

// injectorBox wraps the injector interface for atomic publication.
type injectorBox struct{ fi FaultInjector }

// SetFaultInjector installs (or, with nil, removes) the network's fault
// injector. Safe to call while traffic flows: frames already accepted by
// a verdict keep their fate, subsequent frames see the new injector.
func (n *MemNetwork) SetFaultInjector(fi FaultInjector) {
	if fi == nil {
		n.faults.Store(nil)
		return
	}
	n.faults.Store(&injectorBox{fi: fi})
}

// verdict consults the installed injector, if any.
func (n *MemNetwork) verdict(from, to wire.ProcessID, f *wire.Frame) FaultVerdict {
	if b := n.faults.Load(); b != nil {
		return b.fi.Verdict(from, to, f)
	}
	return FaultVerdict{}
}

// Close shuts down the network's background machinery (today: the delay
// line), retiring any still-undelivered delayed frames. Endpoints are
// not touched — they are owned by their processes. Idempotent; networks
// that never saw a delay verdict have nothing to stop.
func (n *MemNetwork) Close() {
	n.dline.stop()
}

// delayedFrame is one frame parked on the delay line.
type delayedFrame struct {
	due  time.Time
	seq  uint64 // FIFO tie-break for equal deadlines
	from wire.ProcessID
	to   wire.ProcessID
	f    wire.Frame
}

// delayLine delivers frames at deadlines. One per network, its goroutine
// started lazily on the first delayed frame, so fault-free networks (the
// overwhelmingly common case) pay nothing.
type delayLine struct {
	net *MemNetwork

	mu      sync.Mutex
	h       delayHeap
	seq     uint64
	started bool
	stopped bool
	wake    chan struct{}
	stopc   chan struct{}
}

// push parks a frame for delivery after d.
func (l *delayLine) push(from, to wire.ProcessID, f wire.Frame, d time.Duration) {
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		return
	}
	if !l.started {
		l.started = true
		l.wake = make(chan struct{}, 1)
		l.stopc = make(chan struct{})
		go l.loop()
	}
	l.seq++
	heap.Push(&l.h, delayedFrame{
		due: time.Now().Add(d), seq: l.seq,
		from: from, to: to, f: f,
	})
	l.mu.Unlock()
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// stop terminates the loop and drops every parked frame.
func (l *delayLine) stop() {
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		return
	}
	l.stopped = true
	l.h = nil
	started := l.started
	l.mu.Unlock()
	if started {
		close(l.stopc)
	}
}

// loop delivers parked frames as their deadlines pass. Delivery blocks
// on a full destination inbox — the delay line models one shared wire,
// so a saturated receiver backs up everything behind it, exactly like
// the direct path does.
func (l *delayLine) loop() {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		l.mu.Lock()
		var (
			next delayedFrame
			have bool
		)
		if len(l.h) > 0 && !l.h[0].due.After(time.Now()) {
			next = heap.Pop(&l.h).(delayedFrame)
			have = true
		}
		var wait time.Duration = time.Hour
		if !have && len(l.h) > 0 {
			wait = time.Until(l.h[0].due)
		}
		l.mu.Unlock()

		if have {
			l.deliver(next)
			continue
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case <-timer.C:
		case <-l.wake:
		case <-l.stopc:
			return
		}
	}
}

// deliver pushes one due frame into its destination, dropping it when
// the destination is gone — the same fate an in-flight frame meets when
// its receiver crashes.
func (l *delayLine) deliver(d delayedFrame) {
	dst := l.net.lookup(d.to)
	if dst == nil {
		return
	}
	inb := Inbound{From: d.from, Frame: d.f}
	ch := dst.inboxFor(&inb)
	if ch == nil {
		return // routed to RouteDrop
	}
	select {
	case ch <- inb:
	case <-dst.down:
	case <-l.stopc:
	}
}

// delayHeap orders delayed frames by (deadline, push order).
type delayHeap []delayedFrame

func (h delayHeap) Len() int { return len(h) }
func (h delayHeap) Less(i, j int) bool {
	if !h[i].due.Equal(h[j].due) {
		return h[i].due.Before(h[j].due)
	}
	return h[i].seq < h[j].seq
}
func (h delayHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *delayHeap) Push(x interface{}) { *h = append(*h, x.(delayedFrame)) }
func (h *delayHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
