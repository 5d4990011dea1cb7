package core

import (
	"repro/internal/wire"
)

// fairQueue is the forward_queue of the paper together with the nb_msg
// fairness table (paper §3, lines 53-75). Messages awaiting forwarding are
// kept per originating server; the queue handler serves the origin with
// the smallest forwarded-message count, which guarantees that every write
// operation eventually completes even when the ring is saturated.
//
// Each origin's FIFO is indexed by message kind ("buckets"), so peeking
// or popping the first envelope of a given kind is O(1) instead of a
// linear scan — the queue handler applies the fairness rule up to
// TrainLength times per frame, and with the old scan each application
// cost O(queue). Entries carry a queue-global sequence number so the
// original arrival order can be reconstructed across buckets (kind-any
// peeks, takeOrigin).
//
// The queue is confined to the server's event loop and needs no locking.
type fairQueue struct {
	// order lists origins in first-seen order, for deterministic
	// tie-breaking when counts are equal.
	order []wire.ProcessID
	// queues holds the per-origin indexed FIFO of envelopes to forward.
	queues map[wire.ProcessID]*originQueue
	// nbMsg counts messages forwarded per origin since the last reset
	// (paper: nb_msg[pj]).
	nbMsg map[wire.ProcessID]uint64
	// size is the total number of queued envelopes.
	size int
	// seq stamps pushed envelopes with their global arrival order.
	seq uint64
}

// Per-origin buckets. Ring traffic is pre-writes and writes; anything
// else lands in the catch-all bucket so the queue stays total.
const (
	bucketPreWrite = iota
	bucketWrite
	bucketOther
	fqBuckets
)

// bucketOf maps an envelope kind to its bucket.
func bucketOf(k wire.Kind) int {
	switch k {
	case wire.KindPreWrite:
		return bucketPreWrite
	case wire.KindWrite:
		return bucketWrite
	default:
		return bucketOther
	}
}

// fqEntry is one queued envelope stamped with its arrival sequence.
type fqEntry struct {
	seq uint64
	env wire.Envelope
}

// originQueue holds one origin's queued envelopes as per-kind FIFOs.
// Pops advance a head index instead of shifting the slice; the popped
// prefix is compacted away once it dominates the slice.
type originQueue struct {
	buckets [fqBuckets][]fqEntry
	heads   [fqBuckets]int
}

// bucketLen returns the number of live entries in bucket b.
func (oq *originQueue) bucketLen(b int) int { return len(oq.buckets[b]) - oq.heads[b] }

// at returns the i-th live entry of bucket b.
func (oq *originQueue) at(b, i int) *fqEntry { return &oq.buckets[b][oq.heads[b]+i] }

// live returns the total number of live entries.
func (oq *originQueue) live() int {
	n := 0
	for b := 0; b < fqBuckets; b++ {
		n += oq.bucketLen(b)
	}
	return n
}

// firstBucket returns the bucket holding the origin's next envelope of
// kind k (0 = the lowest-sequence envelope across buckets), or -1 when
// no such envelope is queued.
func (oq *originQueue) firstBucket(k wire.Kind) int {
	if k != 0 {
		b := bucketOf(k)
		if oq.bucketLen(b) == 0 {
			return -1
		}
		return b
	}
	best := -1
	var bestSeq uint64
	for b := 0; b < fqBuckets; b++ {
		if oq.bucketLen(b) == 0 {
			continue
		}
		if s := oq.at(b, 0).seq; best == -1 || s < bestSeq {
			best, bestSeq = b, s
		}
	}
	return best
}

// push appends the envelope to its kind's bucket.
func (oq *originQueue) push(seq uint64, env wire.Envelope) {
	b := bucketOf(env.Kind)
	oq.buckets[b] = append(oq.buckets[b], fqEntry{seq: seq, env: env})
}

// popBucket removes and returns bucket b's head envelope. The popped
// slot is zeroed immediately so it stops pinning the value buffer.
func (oq *originQueue) popBucket(b int) wire.Envelope {
	e := oq.at(b, 0)
	env := e.env
	*e = fqEntry{}
	oq.heads[b]++
	switch {
	case oq.heads[b] == len(oq.buckets[b]):
		oq.buckets[b] = oq.buckets[b][:0]
		oq.heads[b] = 0
	case oq.heads[b] >= 32 && oq.heads[b]*2 >= len(oq.buckets[b]):
		// Compact the (already zeroed) popped prefix away so a bucket
		// that never fully drains cannot grow without bound.
		n := copy(oq.buckets[b], oq.buckets[b][oq.heads[b]:])
		tail := oq.buckets[b][n:]
		for i := range tail {
			tail[i] = fqEntry{}
		}
		oq.buckets[b] = oq.buckets[b][:n]
		oq.heads[b] = 0
	}
	return env
}

// newFairQueue returns an empty queue.
func newFairQueue() *fairQueue {
	return &fairQueue{
		queues: make(map[wire.ProcessID]*originQueue),
		nbMsg:  make(map[wire.ProcessID]uint64),
	}
}

// push appends env to its origin's FIFO.
func (q *fairQueue) push(env wire.Envelope) {
	origin := env.Origin
	oq, seen := q.queues[origin]
	if !seen {
		oq = &originQueue{}
		q.queues[origin] = oq
		q.order = append(q.order, origin)
	}
	oq.push(q.seq, env)
	q.seq++
	q.size++
}

// empty reports whether no envelope is queued.
func (q *fairQueue) empty() bool { return q.size == 0 }

// len returns the number of queued envelopes.
func (q *fairQueue) len() int { return q.size }

// count returns nb_msg for the origin.
func (q *fairQueue) count(origin wire.ProcessID) uint64 { return q.nbMsg[origin] }

// charge increments nb_msg for the origin (a message of theirs was
// forwarded, or the local server initiated one of its own writes).
func (q *fairQueue) charge(origin wire.ProcessID) { q.nbMsg[origin]++ }

// resetCounts zeroes the nb_msg table (paper line 55: executed whenever
// the forward queue is observed empty).
func (q *fairQueue) resetCounts() {
	for k := range q.nbMsg {
		delete(q.nbMsg, k)
	}
}

// selectOrigin returns the queued origin with the smallest nb_msg count
// that has at least one envelope of the given kind (0 = any kind).
// includeSelf additionally offers `self` as a candidate with its own
// count even when self has no queued envelopes (the local server wants to
// initiate a write, paper line 61). Ties break on first-seen order, with
// self considered last. The boolean result reports whether any candidate
// exists.
func (q *fairQueue) selectOrigin(self wire.ProcessID, includeSelf bool, k wire.Kind) (wire.ProcessID, bool) {
	best := wire.NoProcess
	var bestCount uint64
	found := false
	for _, origin := range q.order {
		if !q.hasKind(origin, k) {
			continue
		}
		c := q.nbMsg[origin]
		if !found || c < bestCount {
			best, bestCount, found = origin, c, true
		}
	}
	if includeSelf && !found {
		return self, true
	}
	if includeSelf && q.nbMsg[self] < bestCount && !q.hasAny(self) {
		// Initiating beats forwarding only on a strictly smaller
		// count; a queued entry of self's already competes above.
		return self, true
	}
	return best, found
}

// hasAny reports whether the origin has queued envelopes.
func (q *fairQueue) hasAny(origin wire.ProcessID) bool {
	oq := q.queues[origin]
	return oq != nil && oq.live() > 0
}

// hasKind reports whether the origin has a queued envelope of kind k
// (0 = any).
func (q *fairQueue) hasKind(origin wire.ProcessID, k wire.Kind) bool {
	oq := q.queues[origin]
	return oq != nil && oq.firstBucket(k) >= 0
}

// peekFirst returns the first envelope of kind k (0 = any) queued for the
// origin, without removing it.
func (q *fairQueue) peekFirst(origin wire.ProcessID, k wire.Kind) (wire.Envelope, bool) {
	oq := q.queues[origin]
	if oq == nil {
		return wire.Envelope{}, false
	}
	b := oq.firstBucket(k)
	if b < 0 {
		return wire.Envelope{}, false
	}
	return oq.at(b, 0).env, true
}

// popFirst removes and returns the first envelope of kind k (0 = any)
// queued for the origin, preserving the order of the rest.
func (q *fairQueue) popFirst(origin wire.ProcessID, k wire.Kind) (wire.Envelope, bool) {
	oq := q.queues[origin]
	if oq == nil {
		return wire.Envelope{}, false
	}
	b := oq.firstBucket(k)
	if b < 0 {
		return wire.Envelope{}, false
	}
	q.size--
	return oq.popBucket(b), true
}

// takeOrigin removes and returns every envelope queued for the origin in
// arrival order (used when adopting messages of a crashed server).
func (q *fairQueue) takeOrigin(origin wire.ProcessID) []wire.Envelope {
	oq := q.queues[origin]
	if oq == nil || oq.live() == 0 {
		return nil
	}
	out := make([]wire.Envelope, 0, oq.live())
	for {
		b := oq.firstBucket(0)
		if b < 0 {
			break
		}
		out = append(out, oq.popBucket(b))
	}
	q.size -= len(out)
	return out
}

// envelopesOf returns a copy of the origin's queued envelopes in
// arrival order, leaving the queue unchanged (diagnostics and tests).
func (q *fairQueue) envelopesOf(origin wire.ProcessID) []wire.Envelope {
	oq := q.queues[origin]
	if oq == nil || oq.live() == 0 {
		return nil
	}
	var idx [fqBuckets]int
	out := make([]wire.Envelope, 0, oq.live())
	for {
		best := -1
		var bestSeq uint64
		for b := 0; b < fqBuckets; b++ {
			if oq.bucketLen(b) <= idx[b] {
				continue
			}
			if s := oq.at(b, idx[b]).seq; best == -1 || s < bestSeq {
				best, bestSeq = b, s
			}
		}
		if best == -1 {
			return out
		}
		out = append(out, oq.at(best, idx[best]).env)
		idx[best]++
	}
}

// fifoPop removes and returns the globally oldest queued envelope. It is
// used by the DisableFairness ablation, which forwards in plain FIFO
// order. Envelope age is tracked per-origin only, so "oldest" here means:
// scan origins in first-seen order and pop the head of the first
// non-empty queue — a strict round-robin-free FIFO approximation that
// exhibits the starvation the fairness rule prevents.
func (q *fairQueue) fifoPop() (wire.Envelope, bool) {
	for _, origin := range q.order {
		if q.hasAny(origin) {
			return q.popFirst(origin, 0)
		}
	}
	return wire.Envelope{}, false
}
