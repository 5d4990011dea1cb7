package core

import (
	"sync/atomic"

	"repro/internal/tag"
	"repro/internal/wire"
)

// objectState is one server's replica state for a single atomic register
// (one "read/write object" in the paper's terminology; a deployment can
// multiplex many objects over the same ring).
//
// Ownership contract (DESIGN.md §10): the object lives in its owning
// lane's table, and that lane's goroutine is the only one that reads or
// writes any field but snap — the read slow path included, which runs
// on the lane too. Every handler that changes the state republishes the
// read snapshot before it returns, so a snapshot loaded by any other
// goroutine is always the state some completed handler left behind.
type objectState struct {
	// value is the locally stored register value (paper: v).
	value []byte
	// tag is the version of the stored value (paper: [ts, id]).
	tag tag.Tag
	// pending holds every pre-written-but-not-yet-written value, sorted
	// by tag (paper: pending_write_set). Values are kept so the
	// crash-recovery rule (paper lines 89-91) can retransmit the
	// pre-writes the crashed successor may have swallowed.
	pending pendingSet
	// parked holds read requests waiting for their barrier tag to be
	// written (paper lines 80-82: a reader waits for a write message
	// with a tag at least as large as the highest pending pre-write).
	parked []parkedRead

	// snap is the immutable read snapshot the read fast path serves.
	// Stored only by the owning lane, at the end of a handler, and
	// loaded by any goroutine, so a loaded snapshot is always the
	// complete result of some handler, never a torn intermediate.
	snap atomic.Pointer[readSnapshot]
}

// readSnapshot is an immutable publication of the replica state a read
// admission decision needs. The demux loads it with one atomic pointer
// read and serves without a hop to the owning lane — the paper's
// headline property (reads cost two message delays and never block
// behind writes) realized inside the server.
type readSnapshot struct {
	// value and tag are the stored register value and its version.
	value []byte
	tag   tag.Tag
	// barrier is the highest pending pre-write tag at publish time.
	barrier tag.Tag
	// readable caches the §3.1 admission check: nothing pending, or the
	// stored tag already dominates every pending pre-write.
	readable bool
}

// parkedRead is a client read waiting out the read-inversion barrier.
type parkedRead struct {
	client  wire.ProcessID
	reqID   uint64
	barrier tag.Tag
}

// newObjectState returns an empty register replica.
func newObjectState() *objectState {
	return &objectState{}
}

// publish stores a fresh read snapshot of the current state. The owning
// lane calls this once per handler that changed the state, before the
// handler returns.
func (o *objectState) publish() {
	o.snap.Store(&readSnapshot{
		value:    o.value,
		tag:      o.tag,
		barrier:  o.pending.max(),
		readable: o.readableNow(),
	})
}

// maxPending returns the highest pending pre-write tag, or the zero tag
// when nothing is pending (paper: max_lex(pending_write_set)). O(1):
// the pending set is sorted.
func (o *objectState) maxPending() tag.Tag {
	return o.pending.max()
}

// addPending records a pre-write in the pending set, reporting whether
// the entry was actually inserted. The first copy of a tag wins: a
// recovery-retransmitted duplicate carries identical bytes and is
// refused. Entries at or below the stored tag are skipped outright —
// their write already circulated, the stored value's retransmission
// prefix-covers them (DESIGN.md §3.3), and skipping keeps a straggling
// duplicate from resurrecting a pruned entry as a ghost barrier. The
// WAL stages a pre-write record only on true — a refused duplicate
// logged again would replay into a ghost entry.
func (o *objectState) addPending(t tag.Tag, v []byte) bool {
	if t.LessEq(o.tag) {
		return false
	}
	return o.pending.add(t, v)
}

// apply installs (t, v) if it is newer than the stored value and reports
// whether the stored value changed (paper lines 33-36 and 43-46).
func (o *objectState) apply(t tag.Tag, v []byte) bool {
	if !t.After(o.tag) {
		return false
	}
	o.tag = t
	o.value = v
	return true
}

// prune removes every pending entry with tag <= t. The paper removes only
// the exact tag of the received write (lines 37 and 47); removing the
// whole prefix is safe — any read barrier at or below t is already
// satisfied by the stored value — and prevents ghost entries from
// blocking readers forever when a crash swallowed an in-flight write
// message (DESIGN.md §3.3). With the sorted pending set the prefix is
// literal: one scan of the leading entries and one compaction copy.
// Pruned values fall to the GC.
func (o *objectState) prune(t tag.Tag) {
	o.pending.dropPrefix(o.pending.prefixLen(t))
}

// readableNow reports whether a read can be served immediately: nothing
// is pending, or the stored tag already dominates every pending
// pre-write (DESIGN.md §3.1).
func (o *objectState) readableNow() bool {
	if o.pending.size() == 0 {
		return true
	}
	return o.tag.AtLeast(o.pending.max())
}

// park enqueues a blocked read with its barrier.
func (o *objectState) park(client wire.ProcessID, reqID uint64, barrier tag.Tag) {
	o.parked = append(o.parked, parkedRead{client: client, reqID: reqID, barrier: barrier})
}
