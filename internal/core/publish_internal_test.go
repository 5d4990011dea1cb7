package core

import (
	"testing"

	"repro/internal/tag"
	"repro/internal/wire"
)

// The three tests below pin the DESIGN §10 contracts once stated as
// shard-lock counts (hence their names) by the behaviour those counts
// stood for: which steps publish a new read snapshot, and which reads
// the published snapshot serves without the owning lane.

// TestTrainCommitOneLockPerObject asserts the initiation contract: a
// train that initiates several writes on each of two objects records
// every initiation in its object's pending set, and the snapshot each
// object publishes once the frame is built has a barrier covering all of
// them.
func TestTrainCommitOneLockPerObject(t *testing.T) {
	h := newStormHarness(t, 0, func(c *Config) {
		c.WriteLanes = 1
		c.TrainLength = 8
	})
	ln := h.s.lanes[0]

	// Queue 6 client writes over 2 objects (3 initiations each), on
	// objects whose snapshots already exist.
	objs := []*objectState{h.s.obj(0), h.s.obj(1)}
	for _, o := range objs {
		o.publish()
	}
	for i := 0; i < 6; i++ {
		ln.onWriteRequest(500, &wire.Envelope{
			Kind: wire.KindWriteRequest, Object: wire.ObjectID(i % 2),
			ReqID: uint64(i), Value: []byte("v"),
		})
	}
	before := []*readSnapshot{objs[0].snap.Load(), objs[1].snap.Load()}
	of := ln.nextFrame()
	inits := 0
	highest := make(map[wire.ObjectID]tag.Tag)
	for _, env := range of.f.Envelopes() {
		if env.Origin == h.s.cfg.ID {
			inits++
			highest[env.Object] = highest[env.Object].Max(env.Tag)
		}
	}
	if len(highest) != 2 || inits < 3 {
		t.Fatalf("train initiated %d writes on %d objects, want several on both", inits, len(highest))
	}
	if got := objs[0].pending.size() + objs[1].pending.size(); got != inits {
		t.Fatalf("pending entries after the frame = %d, want %d", got, inits)
	}
	for i, o := range objs {
		sn := o.snap.Load()
		if sn == before[i] {
			t.Fatalf("the frame did not republish object %d's snapshot", i)
		}
		if want := highest[wire.ObjectID(i)]; sn.barrier != want || sn.readable {
			t.Fatalf("object %d snapshot barrier=%s readable=%v, want barrier %s, not readable",
				i, sn.barrier, sn.readable, want)
		}
	}
	if len(ln.initiated) != 0 {
		t.Fatalf("%d initiated objects left unpublished after the frame", len(ln.initiated))
	}
}

// TestForwardedEnvelopeSingleLock asserts the receive-side half: a
// forwarded pre-write is recorded and published at receive time, so the
// frame that forwards it leaves the object's snapshot untouched; a forwarded
// write applies and publishes at receive time.
func TestForwardedEnvelopeSingleLock(t *testing.T) {
	h := newStormHarness(t, 0, func(c *Config) { c.WriteLanes = 1 })
	ln := h.s.lanes[0]

	pw := tag.Tag{TS: 1, ID: 2}
	ln.onPreWrite(&wire.Envelope{
		Kind: wire.KindPreWrite, Object: 0,
		Tag: pw, Origin: 2, Value: []byte("p"),
	})
	o := ln.lookup(0)
	if o == nil || o.pending.size() != 1 {
		t.Fatal("pre-write not pending after receive")
	}
	received := o.snap.Load()
	if received == nil || received.barrier != pw || received.readable {
		t.Fatalf("pre-write receive published %+v, want barrier %s, not readable", received, pw)
	}
	if !ln.hasWork() {
		t.Fatal("no forward queued")
	}
	ln.nextFrame()
	if o.snap.Load() != received {
		t.Fatal("the forwarding frame republished the object's snapshot")
	}

	ln.onWrite(&wire.Envelope{
		Kind: wire.KindWrite, Object: 0,
		Tag: pw, Origin: 2, Value: []byte("p"),
	})
	if sn := o.snap.Load(); sn == received || sn.tag != pw || !sn.readable {
		t.Fatalf("write receive published %+v, want tag %s, readable", sn, pw)
	}
}

// TestReadServeTakesNoLock asserts the read-side contract through
// loadSnapshot's verdict: a warm object's reads are served from the
// published snapshot by any goroutine; only a cold object, a read that
// must park, and the first read of a pool-owned value need the owning
// lane. The serve decision must not allocate.
func TestReadServeTakesNoLock(t *testing.T) {
	h := newStormHarness(t, 0, func(c *Config) { c.WriteLanes = 1 })
	ln := h.s.lanes[0]
	servable := func(obj wire.ObjectID) bool {
		_, ok := h.s.loadSnapshot(obj)
		return ok
	}

	// Cold object: not servable until its lane serves a read and
	// publishes.
	if servable(0) {
		t.Fatal("cold object servable from a snapshot")
	}
	ln.onReadRequest(500, &wire.Envelope{Kind: wire.KindReadRequest, Object: 0, ReqID: 1})
	if !servable(0) {
		t.Fatal("object not servable after its first read")
	}

	// Warm object: the published snapshot serves it, and the lane's
	// reads of it publish nothing new.
	ln.onWrite(&wire.Envelope{Kind: wire.KindWrite, Object: 0, Tag: tag.Tag{TS: 1, ID: 2}, Origin: 2, Value: []byte("v")})
	if !servable(0) {
		t.Fatal("readable object not servable")
	}
	warm := ln.lookup(0).snap.Load()
	for i := 0; i < 10; i++ {
		ln.onReadRequest(500, &wire.Envelope{Kind: wire.KindReadRequest, Object: 0, ReqID: uint64(2 + i)})
	}
	if ln.lookup(0).snap.Load() != warm {
		t.Fatal("warm reads fell to the lane's slow path")
	}
	// The serve decision itself — table lookup, snapshot load, admission
	// check — is on every read's path and must not allocate.
	if !raceEnabled {
		if allocs := testing.AllocsPerRun(1000, func() {
			if !servable(0) {
				t.Fatal("published snapshot not servable")
			}
		}); allocs != 0 {
			t.Fatalf("read fast path allocates %.1f/op, want 0", allocs)
		}
	}

	// A blocking pre-write: the snapshot refuses reads and the lane
	// parks them.
	ln.onPreWrite(&wire.Envelope{Kind: wire.KindPreWrite, Object: 0, Tag: tag.Tag{TS: 2, ID: 2}, Origin: 2, Value: []byte("w")})
	if servable(0) {
		t.Fatal("object behind a pending pre-write servable")
	}
	ln.onReadRequest(500, &wire.Envelope{Kind: wire.KindReadRequest, Object: 0, ReqID: 51})
	if len(h.s.obj(0).parked) != 1 {
		t.Fatal("blocked read did not park")
	}

	// A pool-owned value (a forwarded pre-write's inbound buffer,
	// installed by its elided write) is not servable from the snapshot:
	// the first read goes to the lane, which dissolves the ownership and
	// republishes, and every later read of the value is servable.
	buf := wire.GetBuffer()
	*buf = append((*buf)[:0], 'p')
	pw := tag.Tag{TS: 1, ID: 2}
	ln.onPreWrite(&wire.Envelope{Kind: wire.KindPreWrite, Flags: wire.FlagPooledValue, Object: 1, Tag: pw, Origin: 2, Value: *buf})
	ln.onWrite(&wire.Envelope{Kind: wire.KindWrite, Flags: wire.FlagValueElided, Object: 1, Tag: pw, Origin: 2})
	if sn := ln.lookup(1).snap.Load(); !sn.readable || !sn.pooled {
		t.Fatalf("setup: snapshot readable=%v pooled=%v, want a readable pool-owned value", sn.readable, sn.pooled)
	}
	if servable(1) {
		t.Fatal("pool-owned value servable before its first read")
	}
	ln.onReadRequest(500, &wire.Envelope{Kind: wire.KindReadRequest, Object: 1, ReqID: 60})
	if o := ln.lookup(1); o.valuePooled || !servable(1) {
		t.Fatal("first read did not dissolve pool ownership and republish")
	}
}
