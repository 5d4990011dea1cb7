// Package ackq provides the client-acknowledgment sender a server uses
// so its protocol loops never block on a client connection. Enqueue
// never blocks, and each destination's lane is deliberately unbounded:
// backpressure toward the protocol loop is exactly the coupling it
// exists to remove, so a slow or dead client costs memory proportional
// to its unacknowledged operations, never ring progress.
package ackq

import (
	"sync"
	"sync/atomic"
)

// Sharded is the per-destination ack sender: every key (a client process
// id) gets its own FIFO lane with its own lazily created drain
// goroutine, so one slow or dead destination delays only its own acks,
// never another client's. Enqueue never blocks, and a destination's
// acks are sent in enqueue order.
//
// When a TrySend hook is configured, an idle lane (nothing queued, no
// drain in flight) attempts the non-blocking send right on the
// enqueueing goroutine and skips the queue entirely — zero handoffs,
// zero wakeups. The idle check happens under the lane lock, which is
// what keeps the fast path from overtaking queued acks: the moment
// anything is queued or a drain batch is in flight, new acks join the
// queue behind it.
type Sharded[K ~uint32, T any] struct {
	// send performs the real (possibly blocking) delivery; it runs only
	// on lane drain goroutines.
	send func(K, T) error
	// trySend, when non-nil, attempts a provably non-blocking delivery
	// on the enqueueing goroutine; false means "not deliverable without
	// blocking", and the item falls to the lane queue.
	trySend func(K, T) bool
	// onError observes a failed send (counters); may be nil.
	onError func(K, error)

	stopc   chan struct{}
	stopped atomic.Bool
	wg      sync.WaitGroup

	// stripes spread the lane lookup so concurrent enqueues for
	// different clients do not serialize on one map mutex. A lookup hit
	// is a read-lock and a map read: no allocation (the strict gate),
	// unlike a sync.Map whose boxed keys allocate per Load.
	stripes [laneStripes]laneStripe[K, T]

	fast   atomic.Uint64 // acks delivered by the non-blocking fast path
	queued atomic.Uint64 // acks that went through a lane queue
	lanes  atomic.Uint64 // lanes ever created
}

// laneStripes is the lane-map fanout. Lookups take a read lock, so the
// stripe count only matters for lane creation and the (rare) write
// lock; 64 is well past any realistic core count.
const laneStripes = 64

type laneStripe[K ~uint32, T any] struct {
	mu sync.RWMutex
	m  map[K]*lane[K, T]
}

// lane is one destination's FIFO ack queue plus its drain goroutine.
type lane[K ~uint32, T any] struct {
	s   *Sharded[K, T]
	key K

	mu sync.Mutex
	// items is the queued backlog; spare is the drained batch's backing
	// array handed back for reuse, so steady-state enqueue does not
	// allocate even while a drain is consuming.
	items, spare []T
	// busy is true from the moment a drain batch is taken until it is
	// fully sent; the fast path stays off while it is set, preserving
	// per-destination FIFO order.
	busy   bool
	notify chan struct{}
}

// NewSharded returns a started sharded sender. send performs the real
// delivery (lane goroutines only); trySend, when non-nil, is the
// non-blocking fast path attempted from the enqueueing goroutine;
// onError observes failed sends. Stop tears every lane down.
func NewSharded[K ~uint32, T any](send func(K, T) error, trySend func(K, T) bool, onError func(K, error)) *Sharded[K, T] {
	s := &Sharded[K, T]{
		send:    send,
		trySend: trySend,
		onError: onError,
		stopc:   make(chan struct{}),
	}
	for i := range s.stripes {
		s.stripes[i].m = make(map[K]*lane[K, T])
	}
	return s
}

// stripe returns the stripe owning key.
func (s *Sharded[K, T]) stripe(key K) *laneStripe[K, T] {
	h := uint32(key) * 2654435761
	return &s.stripes[(h>>16^h)%laneStripes]
}

// Enqueue hands one item to the destination's lane; it never blocks.
// After Stop the item is dropped — the owner is tearing down and its
// endpoint is going away with it.
func (s *Sharded[K, T]) Enqueue(key K, item T) {
	st := s.stripe(key)
	st.mu.RLock()
	ln := st.m[key]
	st.mu.RUnlock()
	if ln == nil {
		ln = s.makeLane(st, key)
		if ln == nil {
			return // stopped
		}
	}
	ln.enqueue(item)
}

// makeLane creates (or races to find) the lane for key and starts its
// drain goroutine. Returns nil when the sender has stopped: goroutine
// creation must not race Stop's Wait.
func (s *Sharded[K, T]) makeLane(st *laneStripe[K, T], key K) *lane[K, T] {
	st.mu.Lock()
	defer st.mu.Unlock()
	if ln := st.m[key]; ln != nil {
		return ln
	}
	if s.stopped.Load() {
		return nil
	}
	ln := &lane[K, T]{s: s, key: key, notify: make(chan struct{}, 1)}
	st.m[key] = ln
	s.lanes.Add(1)
	s.wg.Add(1)
	go ln.drain()
	return ln
}

// enqueue adds one item to the lane, first attempting the non-blocking
// fast path when the lane is provably idle.
func (ln *lane[K, T]) enqueue(item T) {
	s := ln.s
	ln.mu.Lock()
	if !ln.busy && len(ln.items) == 0 && s.trySend != nil && s.trySend(ln.key, item) {
		ln.mu.Unlock()
		s.fast.Add(1)
		return
	}
	ln.items = append(ln.items, item)
	ln.mu.Unlock()
	s.queued.Add(1)
	select {
	case ln.notify <- struct{}{}:
	default:
	}
}

// drain sends the lane's backlog in enqueue order until Stop. Batches
// swap the queued slice against the spare one, so a lane in steady
// state recycles two backing arrays and never allocates.
func (ln *lane[K, T]) drain() {
	s := ln.s
	defer s.wg.Done()
	var zero T
	for {
		select {
		case <-ln.notify:
		case <-s.stopc:
			return
		}
		for {
			ln.mu.Lock()
			if len(ln.items) == 0 {
				ln.busy = false
				ln.mu.Unlock()
				break
			}
			batch := ln.items
			ln.items = ln.spare[:0]
			ln.spare = nil
			ln.busy = true
			ln.mu.Unlock()
			for i := range batch {
				select {
				case <-s.stopc:
					return
				default:
				}
				if err := s.send(ln.key, batch[i]); err != nil && s.onError != nil {
					s.onError(ln.key, err)
				}
				batch[i] = zero // drop item references before recycling
			}
			ln.mu.Lock()
			ln.spare = batch[:0]
			ln.mu.Unlock()
		}
	}
}

// Stop terminates every lane goroutine and waits for them. Items still
// queued (or enqueued later) are dropped; the owner is shutting down.
func (s *Sharded[K, T]) Stop() {
	if s.stopped.CompareAndSwap(false, true) {
		close(s.stopc)
	}
	s.wg.Wait()
}

// Stats reports how many acks went out via the non-blocking fast path
// versus through a lane queue, and how many lanes were ever created.
func (s *Sharded[K, T]) Stats() (fast, queued, lanes uint64) {
	return s.fast.Load(), s.queued.Load(), s.lanes.Load()
}
