package ackq

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// recorder collects delivered items per destination.
type recorder struct {
	mu   sync.Mutex
	seen map[uint32][]int
}

func newRecorder() *recorder { return &recorder{seen: make(map[uint32][]int)} }

func (r *recorder) record(to uint32, v int) {
	r.mu.Lock()
	r.seen[to] = append(r.seen[to], v)
	r.mu.Unlock()
}

// TestShardedPerClientFIFO is the FIFO-order property test: one
// producer per destination enqueues a numbered sequence, concurrently
// across many destinations, while a flaky fast path accepts an
// arbitrary subset of idle-lane deliveries. Whatever mix of fast-path
// and queued deliveries results, each destination must observe its own
// sequence complete and in order.
func TestShardedPerClientFIFO(t *testing.T) {
	const dests, items = 32, 300
	rec := newRecorder()
	var flake atomic.Uint64
	s := NewSharded[uint32, int](
		func(to uint32, v int) error {
			rec.record(to, v)
			return nil
		},
		func(to uint32, v int) bool {
			// Accept roughly every other idle-lane attempt, so both
			// paths interleave on every lane.
			if flake.Add(1)%2 == 0 {
				return false
			}
			rec.record(to, v)
			return true
		},
		nil,
	)
	var wg sync.WaitGroup
	for d := 0; d < dests; d++ {
		wg.Add(1)
		go func(d uint32) {
			defer wg.Done()
			for i := 0; i < items; i++ {
				s.Enqueue(d, i)
			}
		}(uint32(d))
	}
	wg.Wait()
	waitDelivered(t, rec, dests, items)
	s.Stop()

	rec.mu.Lock()
	defer rec.mu.Unlock()
	for d := uint32(0); d < dests; d++ {
		got := rec.seen[d]
		if len(got) != items {
			t.Fatalf("dest %d: delivered %d of %d", d, len(got), items)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("dest %d: position %d holds %d (FIFO violated)", d, i, v)
			}
		}
	}
	fast, queued, lanes := s.Stats()
	if fast+queued != dests*items {
		t.Fatalf("stats fast %d + queued %d != %d", fast, queued, dests*items)
	}
	if lanes != dests {
		t.Fatalf("lanes = %d, want %d", lanes, dests)
	}
}

// waitDelivered polls until every destination has all its items (the
// lane drains run asynchronously) or the deadline passes.
func waitDelivered(t *testing.T, rec *recorder, dests, items int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		rec.mu.Lock()
		done := len(rec.seen) == dests
		if done {
			for _, got := range rec.seen {
				if len(got) != items {
					done = false
					break
				}
			}
		}
		rec.mu.Unlock()
		if done {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for deliveries")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShardedSlowDestinationIsolation wedges one destination's send
// forever and checks another destination's acks still flow — the
// isolation property the per-destination lanes exist for, impossible
// with one shared drain goroutine.
func TestShardedSlowDestinationIsolation(t *testing.T) {
	unwedge := make(chan struct{})
	fastDone := make(chan struct{})
	var fastSeen atomic.Uint64
	s := NewSharded[uint32, int](
		func(to uint32, v int) error {
			if to == 1 {
				<-unwedge // a client that never drains its connection
				return nil
			}
			if fastSeen.Add(1) == 100 {
				close(fastDone)
			}
			return nil
		},
		nil, // no fast path: every item must cross the wedged drain's world
		nil,
	)
	for i := 0; i < 10; i++ {
		s.Enqueue(1, i)
	}
	for i := 0; i < 100; i++ {
		s.Enqueue(2, i)
	}
	select {
	case <-fastDone:
	case <-time.After(5 * time.Second):
		t.Fatal("healthy destination starved behind the wedged one")
	}
	close(unwedge)
	s.Stop()
}

// TestShardedStopRace races Stop against a storm of concurrent
// enqueues creating lanes; run with -race it pins the teardown
// contract (no Add-after-Wait, no send on a closed channel, enqueues
// after Stop silently dropped).
func TestShardedStopRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		var delivered atomic.Uint64
		s := NewSharded[uint32, int](
			func(uint32, int) error {
				delivered.Add(1)
				return nil
			},
			nil,
			nil,
		)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < 200; i++ {
					s.Enqueue(uint32((g*31+i)%64), i)
				}
			}(g)
		}
		close(start)
		s.Stop() // concurrent with the enqueues
		wg.Wait()
		// Post-stop enqueues must be inert.
		s.Enqueue(999, 1)
	}
}

// TestShardedErrorCounter pins the failure hook: failed sends are
// observed, successful ones are not, and a failure does not stop the
// lane from draining later items.
func TestShardedErrorCounter(t *testing.T) {
	errBoom := errors.New("boom")
	var fails atomic.Uint64
	var okDone sync.WaitGroup
	okDone.Add(2)
	s := NewSharded[uint32, int](
		func(to uint32, v int) error {
			if v == 1 {
				return errBoom
			}
			okDone.Done()
			return nil
		},
		nil,
		func(to uint32, err error) {
			if to != 7 || !errors.Is(err, errBoom) {
				t.Errorf("onError(%d, %v)", to, err)
			}
			fails.Add(1)
		},
	)
	s.Enqueue(7, 0)
	s.Enqueue(7, 1)
	s.Enqueue(7, 2)
	okDone.Wait()
	s.Stop()
	if fails.Load() != 1 {
		t.Fatalf("failures = %d, want 1", fails.Load())
	}
}

// TestShardedFastPathExclusive checks an always-willing fast path keeps
// every idle-lane delivery off the queue, and that the counters see it.
func TestShardedFastPathExclusive(t *testing.T) {
	rec := newRecorder()
	s := NewSharded[uint32, int](
		func(to uint32, v int) error {
			t.Errorf("queued send of %d/%d despite always-ready fast path", to, v)
			return nil
		},
		func(to uint32, v int) bool {
			rec.record(to, v)
			return true
		},
		nil,
	)
	// Single producer: the lane is provably idle at each enqueue.
	for i := 0; i < 50; i++ {
		s.Enqueue(3, i)
	}
	s.Stop()
	fast, queued, _ := s.Stats()
	if fast != 50 || queued != 0 {
		t.Fatalf("fast %d queued %d, want 50/0", fast, queued)
	}
}

// TestShardedEnqueueNoAlloc gates both Enqueue paths at zero steady-state
// allocations: the fast path (idle lane, willing transport: the item is
// sent inline on the enqueueing goroutine) and the queued path (append
// under the lane lock, hand-off to the drain goroutine, the two backing
// arrays recycled). Every client ack of a server goes through one of
// them.
func TestShardedEnqueueNoAlloc(t *testing.T) {
	t.Run("fast", func(t *testing.T) {
		s := NewSharded(
			func(uint32, int) error { return nil },
			func(uint32, int) bool { return true },
			nil,
		)
		defer s.Stop()
		s.Enqueue(7, 0) // create the lane outside the measured runs
		if allocs := testing.AllocsPerRun(1000, func() { s.Enqueue(7, 1) }); allocs != 0 {
			t.Fatalf("fast path allocates %.1f/op, want 0", allocs)
		}
		if fast, queued, _ := s.Stats(); queued != 0 || fast == 0 {
			t.Fatalf("fast/queued = %d/%d, want every item on the fast path", fast, queued)
		}
	})
	t.Run("queued", func(t *testing.T) {
		var delivered atomic.Uint64
		s := NewSharded(
			func(uint32, int) error { delivered.Add(1); return nil },
			nil, // no fast path: everything queues
			nil,
		)
		defer s.Stop()
		const burst = 64
		sent := uint64(0)
		round := func() {
			for i := 0; i < burst; i++ {
				s.Enqueue(7, i)
			}
			sent += burst
			for delivered.Load() < sent {
				runtime.Gosched()
			}
		}
		// Grow both backing arrays to the burst size before measuring.
		for i := 0; i < 8; i++ {
			round()
		}
		if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
			t.Fatalf("queued path allocates %.1f per %d-item burst, want 0", allocs, burst)
		}
	})
}
