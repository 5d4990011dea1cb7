package core

import (
	"testing"
	"time"

	"repro/internal/tag"
	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/wire"
)

// TestReplayRoutesRecordsToTheirLanes stages records on every lane of a
// 4-lane server, kills it, and inspects the reopened server between
// NewServer and Start. Every lane's records share one log, so replay
// must route each record by its object: a lane's in-flight own writes
// and re-queued ring traffic hold exactly its own objects.
func TestReplayRoutesRecordsToTheirLanes(t *testing.T) {
	const objects = 16
	dir := t.TempDir()
	mod := func(c *Config) {
		c.WriteLanes = 4
		c.WAL = wal.Config{Dir: dir}
	}
	h := newStormHarness(t, 0, mod)
	s := h.s
	own := make([]map[wire.ObjectID]bool, len(s.lanes))    // own writes in flight, per lane
	queued := make([]map[wire.ObjectID]bool, len(s.lanes)) // objects with ring traffic to resume
	for i := range s.lanes {
		own[i], queued[i] = map[wire.ObjectID]bool{}, map[wire.ObjectID]bool{}
	}
	for obj := wire.ObjectID(0); obj < objects; obj++ {
		ln := h.lane(obj)
		if obj%2 == 0 {
			// A client write this server initiates: RecInit when its frame is built.
			ln.onWriteRequest(500, &wire.Envelope{Kind: wire.KindWriteRequest, Object: obj, ReqID: uint64(obj) + 1, Value: []byte{byte(obj)}})
			own[ln.idx][obj] = true
		} else {
			// A pre-write forwarded from server 2: RecPreWrite at receive.
			ln.onPreWrite(&wire.Envelope{Kind: wire.KindPreWrite, Object: obj, Tag: tag.Tag{TS: 1, ID: 2}, Origin: 2, Value: []byte{byte(obj)}})
		}
		queued[ln.idx][obj] = true
	}
	for i := range s.lanes {
		if len(own[i]) == 0 || len(queued[i]) == len(own[i]) {
			t.Fatalf("setup: lane %d has %d own writes of %d objects; want both kinds", i, len(own[i]), len(queued[i]))
		}
	}
	for _, ln := range s.lanes {
		for ln.hasWork() {
			ln.nextFrame()
		}
	}
	s.wal.Start()
	for _, ln := range s.lanes {
		if err := s.wal.WaitLane(ln.idx, ln.walSeq, nil); err != nil {
			t.Fatal(err)
		}
	}
	s.Kill()

	re := newStormHarness(t, 0, mod).s
	defer re.Stop()
	if re.WALStats().Replayed == 0 {
		t.Fatal("nothing replayed")
	}
	for i, ln := range re.lanes {
		gotOwn := map[wire.ObjectID]bool{}
		for key := range ln.myWrites {
			gotOwn[key.object] = true
		}
		gotQueued := map[wire.ObjectID]bool{}
		for _, origin := range ln.fq.order {
			for _, env := range ln.fq.envelopesOf(origin) {
				gotQueued[env.Object] = true
			}
		}
		if !sameObjects(gotOwn, own[i]) {
			t.Errorf("lane %d own writes after replay: %v, want %v", i, gotOwn, own[i])
		}
		if !sameObjects(gotQueued, queued[i]) {
			t.Errorf("lane %d re-queued objects after replay: %v, want %v", i, gotQueued, queued[i])
		}
	}
}

// TestSendSlotGatesOnWAL runs one lane's event loop and sender (not
// Start) over a WAL whose syncer has not started. The first frame waits
// in the sender for its sync; while it holds the send slot the lane keeps
// handling inbound but builds no second frame; once the WAL starts, the
// first frame leaves and the next one carries everything that queued
// meanwhile as one train.
func TestSendSlotGatesOnWAL(t *testing.T) {
	h := newStormHarness(t, 0, func(c *Config) {
		c.WriteLanes = 1
		c.WAL = wal.Config{Dir: t.TempDir()}
	})
	s := h.s
	pcfg := s.cfg
	pcfg.ID = 2 // the successor
	peer, err := h.net.RegisterSession(pcfg.SessionHello())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = peer.Close() })
	ln := s.lanes[0]
	ln.onWriteRequest(500, &wire.Envelope{Kind: wire.KindWriteRequest, Object: 0, ReqID: 1, Value: []byte("a")})
	s.wg.Add(2)
	go ln.loop()
	go ln.senderLoop()
	defer s.Stop()

	waitUntil(t, "the first frame is built", func() bool { return s.CounterSnapshot().RingFrames == 1 })
	select {
	case in := <-peer.Inbox():
		t.Fatalf("a frame reached the transport before its WAL sync: %+v", in.Frame)
	case <-time.After(50 * time.Millisecond):
	}

	// While the slot is out: a client write, then a forwarded pre-write.
	pw := tag.Tag{TS: 1, ID: 3}
	ln.inbox <- transport.Inbound{From: 500, Frame: wire.NewFrame(wire.Envelope{Kind: wire.KindWriteRequest, Object: 1, ReqID: 2, Value: []byte("b")})}
	ln.inbox <- transport.Inbound{From: 3, Frame: wire.NewLaneFrame(wire.Envelope{Kind: wire.KindPreWrite, Object: 2, Tag: pw, Origin: 3, Value: []byte("c")}, 0)}
	waitUntil(t, "the forwarded pre-write is published", func() bool {
		if o := ln.lookup(2); o != nil {
			sn := o.snap.Load()
			return sn != nil && sn.barrier == pw
		}
		return false
	})
	if n := s.CounterSnapshot().RingFrames; n != 1 {
		t.Fatalf("%d frames built while the send slot was out, want 1", n)
	}

	s.wal.Start()
	recv := func() []wire.Envelope {
		t.Helper()
		select {
		case in := <-peer.Inbox():
			return in.Frame.Envelopes()
		case <-time.After(5 * time.Second):
			t.Fatal("no frame reached the successor")
			return nil
		}
	}
	if first := recv(); len(first) != 1 || first[0].Object != 0 || first[0].Origin != s.cfg.ID {
		t.Fatalf("first frame = %+v, want the initiation of object 0", first)
	}
	second := recv()
	got := map[wire.ObjectID]wire.ProcessID{}
	for _, env := range second {
		got[env.Object] = env.Origin
	}
	if len(second) != 2 || got[1] != s.cfg.ID || got[2] != 3 {
		t.Fatalf("second frame = %+v, want the initiation of object 1 and the forward of object 2", second)
	}
}

// waitUntil polls cond until it holds, failing the test after a few
// seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

func sameObjects(a, b map[wire.ObjectID]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for obj := range a {
		if !b[obj] {
			return false
		}
	}
	return true
}
