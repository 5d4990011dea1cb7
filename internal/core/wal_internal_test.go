package core

import (
	"testing"
	"time"

	"repro/internal/tag"
	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/wire"
)

// TestSendSlotGatesOnWAL runs the lane's event loop and sender (not
// Start) over a WAL whose syncer has not started. The first frame waits
// in the sender for its sync; while it holds the send slot the lane keeps
// handling inbound but builds no second frame; once the WAL starts, the
// first frame leaves and the next one carries everything that queued
// meanwhile as one train.
func TestSendSlotGatesOnWAL(t *testing.T) {
	h := newStormHarness(t, 0, func(c *Config) {
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
	ln := s.lane
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
	ln.inbox <- transport.Inbound{From: 3, Frame: wire.NewFrame(wire.Envelope{Kind: wire.KindPreWrite, Object: 2, Tag: pw, Origin: 3, Value: []byte("c")})}
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
