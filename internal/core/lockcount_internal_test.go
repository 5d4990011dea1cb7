package core

import (
	"testing"

	"repro/internal/tag"
	"repro/internal/wire"
)

// lockCounter installs the lockObserver test hook and tallies shard-lock
// acquisitions per object.
type lockCounter struct {
	total  int
	perObj map[wire.ObjectID]int
}

func installLockCounter(s *Server) *lockCounter {
	lc := &lockCounter{perObj: make(map[wire.ObjectID]int)}
	s.lockObserver = func(id wire.ObjectID) {
		lc.total++
		lc.perObj[id]++
	}
	return lc
}

func (lc *lockCounter) reset() {
	lc.total = 0
	clear(lc.perObj)
}

// TestTrainCommitOneLockPerObject asserts the DESIGN §10 commit
// contract: planning a train takes no shard locks at all (the planner
// reads published snapshots), and committing it takes exactly one
// acquisition per distinct initiated object, however many envelopes the
// train initiates for that object.
func TestTrainCommitOneLockPerObject(t *testing.T) {
	h := newStormHarness(t, 0, func(c *Config) {
		c.WriteLanes = 1
		c.TrainLength = 8
	})
	lc := installLockCounter(h.s)
	ln := h.s.lanes[0]

	// Queue 6 client writes over 2 objects (3 initiations each).
	for i := 0; i < 6; i++ {
		ln.onWriteRequest(500, &wire.Envelope{
			Kind: wire.KindWriteRequest, Object: wire.ObjectID(i % 2),
			ReqID: uint64(i), Value: []byte("v"),
		})
	}
	lc.reset()
	plan := ln.planRingSend()
	if !plan.ok {
		t.Fatal("no plan for queued writes")
	}
	if lc.total != 0 {
		t.Fatalf("planning took %d shard-lock acquisitions, want 0", lc.total)
	}
	inits := 0
	for _, it := range plan.items {
		if it.initiate {
			inits++
		}
	}
	if inits < 2 {
		t.Fatalf("train initiated %d writes, want >= 2 to exercise grouping", inits)
	}
	ln.commitRingSend(plan)
	if lc.total != 2 {
		t.Fatalf("train commit took %d acquisitions, want 2 (one per object)", lc.total)
	}
	for obj, n := range lc.perObj {
		if n != 1 {
			t.Fatalf("object %d locked %d times during commit, want 1", obj, n)
		}
	}
	// The pending entries must still all be recorded.
	if got := h.s.obj(0).pending.size() + h.s.obj(1).pending.size(); got != inits {
		t.Fatalf("pending entries after commit = %d, want %d", got, inits)
	}
}

// TestForwardedEnvelopeSingleLock asserts the receive-side half of the
// contract: a forwarded pre-write costs exactly one acquisition at
// receive time (recording the pending entry) and zero at commit time,
// and a forwarded write costs exactly one at receive time.
func TestForwardedEnvelopeSingleLock(t *testing.T) {
	h := newStormHarness(t, 0, func(c *Config) { c.WriteLanes = 1 })
	lc := installLockCounter(h.s)
	ln := h.s.lanes[0]

	lc.reset()
	ln.onPreWrite(&wire.Envelope{
		Kind: wire.KindPreWrite, Object: 0,
		Tag: tag.Tag{TS: 1, ID: 2}, Origin: 2, Value: []byte("p"),
	})
	if lc.total != 1 {
		t.Fatalf("pre-write receive took %d acquisitions, want 1", lc.total)
	}
	if h.s.obj(0).pending.size() != 1 {
		t.Fatal("pre-write not pending after receive")
	}
	lc.reset()
	plan := ln.planRingSend()
	if !plan.ok {
		t.Fatal("no forward planned")
	}
	ln.commitRingSend(plan)
	if lc.total != 0 {
		t.Fatalf("forward commit took %d acquisitions, want 0", lc.total)
	}

	lc.reset()
	ln.onWrite(&wire.Envelope{
		Kind: wire.KindWrite, Object: 0,
		Tag: tag.Tag{TS: 1, ID: 2}, Origin: 2, Value: []byte("p"),
	})
	if lc.total != 1 {
		t.Fatalf("write receive took %d acquisitions, want 1", lc.total)
	}
}

// TestReadServeTakesNoLock asserts the read-side contract: once a
// snapshot is published, the serve path takes zero shard-lock
// acquisitions; only a read that must park, a cold object, or the first
// read of a pool-owned value falls back to the lane's locked slow path.
func TestReadServeTakesNoLock(t *testing.T) {
	h := newStormHarness(t, 0, func(c *Config) { c.WriteLanes = 1 })
	lc := installLockCounter(h.s)
	ln := h.s.lanes[0]

	// Cold object: the serve must take the lock (and publish).
	lc.reset()
	ln.onReadRequest(500, &wire.Envelope{Kind: wire.KindReadRequest, Object: 0, ReqID: 1})
	if lc.total != 1 {
		t.Fatalf("cold read took %d acquisitions, want 1", lc.total)
	}

	// Warm object: the published snapshot serves lock-free.
	lc.reset()
	for i := 0; i < 10; i++ {
		ln.onReadRequest(500, &wire.Envelope{Kind: wire.KindReadRequest, Object: 0, ReqID: uint64(2 + i)})
	}
	if lc.total != 0 {
		t.Fatalf("warm reads took %d acquisitions, want 0", lc.total)
	}

	// Install a value, then a blocking pre-write: reads park under the
	// lock (the slow path is the contended-write case by design).
	ln.onWrite(&wire.Envelope{Kind: wire.KindWrite, Object: 0, Tag: tag.Tag{TS: 1, ID: 2}, Origin: 2, Value: []byte("v")})
	lc.reset()
	ln.onReadRequest(500, &wire.Envelope{Kind: wire.KindReadRequest, Object: 0, ReqID: 50})
	if lc.total != 0 {
		t.Fatalf("readable read took %d acquisitions, want 0", lc.total)
	}
	// The serve decision itself — index lookup, snapshot load, admission
	// check — is on every read's path and must not allocate.
	if !raceEnabled {
		if allocs := testing.AllocsPerRun(1000, func() {
			if _, ok := h.s.loadSnapshot(0); !ok {
				t.Fatal("published snapshot not servable")
			}
		}); allocs != 0 {
			t.Fatalf("read fast path allocates %.1f/op, want 0", allocs)
		}
	}
	ln.onPreWrite(&wire.Envelope{Kind: wire.KindPreWrite, Object: 0, Tag: tag.Tag{TS: 2, ID: 2}, Origin: 2, Value: []byte("w")})
	lc.reset()
	ln.onReadRequest(500, &wire.Envelope{Kind: wire.KindReadRequest, Object: 0, ReqID: 51})
	if lc.total != 1 {
		t.Fatalf("blocked read took %d acquisitions, want 1 (park)", lc.total)
	}
	if len(h.s.obj(0).parked) != 1 {
		t.Fatal("blocked read did not park")
	}

	// A pool-owned value (a forwarded pre-write's inbound buffer,
	// installed by its elided write) is not servable from the snapshot:
	// the first read takes the lock once, dissolves the ownership, and
	// republishes, and every later read of the value is lock-free.
	buf := wire.GetBuffer()
	*buf = append((*buf)[:0], 'p')
	pw := tag.Tag{TS: 1, ID: 2}
	ln.onPreWrite(&wire.Envelope{Kind: wire.KindPreWrite, Flags: wire.FlagPooledValue, Object: 1, Tag: pw, Origin: 2, Value: *buf})
	ln.onWrite(&wire.Envelope{Kind: wire.KindWrite, Flags: wire.FlagValueElided, Object: 1, Tag: pw, Origin: 2})
	if sn := h.s.fastObj(1).snap.Load(); !sn.readable || !sn.pooled {
		t.Fatalf("setup: snapshot readable=%v pooled=%v, want a readable pool-owned value", sn.readable, sn.pooled)
	}
	lc.reset()
	ln.onReadRequest(500, &wire.Envelope{Kind: wire.KindReadRequest, Object: 1, ReqID: 60})
	if lc.total != 1 {
		t.Fatalf("first read of a pooled value took %d acquisitions, want 1", lc.total)
	}
	if o := h.s.fastObj(1); o.valuePooled || o.snap.Load().pooled {
		t.Fatal("first read did not dissolve pool ownership and republish")
	}
	lc.reset()
	ln.onReadRequest(500, &wire.Envelope{Kind: wire.KindReadRequest, Object: 1, ReqID: 61})
	if lc.total != 0 {
		t.Fatalf("second read of the value took %d acquisitions, want 0", lc.total)
	}
}
