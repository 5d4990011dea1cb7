package core

import (
	"math/rand"
	"testing"

	"repro/internal/tag"
	"repro/internal/transport"
	"repro/internal/wire"
)

// stormHarness drives one server's handlers directly (no goroutines)
// with adversarial message sequences and checks protocol invariants the
// correctness argument relies on. The transport endpoint exists only to
// satisfy the constructor; the event loops are never started, so handler
// calls are synchronous and deterministic. Events go straight to the
// server's lane, as the transport demux would deliver them.
type stormHarness struct {
	t   *testing.T
	s   *Server
	net *transport.MemNetwork
	rng *rand.Rand
}

func newStormHarness(t *testing.T, seed int64, mods ...func(*Config)) *stormHarness {
	t.Helper()
	net := transport.NewMemNetwork(transport.MemNetworkOptions{})
	cfg := Config{ID: 1, Members: []wire.ProcessID{1, 2, 3}}
	for _, mod := range mods {
		mod(&cfg)
	}
	ep, err := net.RegisterSession(cfg.SessionHello())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ep.Close() })
	s, err := NewServer(cfg, ep)
	if err != nil {
		t.Fatal(err)
	}
	return &stormHarness{t: t, s: s, net: net, rng: rand.New(rand.NewSource(seed))}
}

// obj returns the replica state for an object from the lane's table,
// creating it on first use. Only for tests that drive the handlers
// synchronously, with no lane goroutine running.
func (s *Server) obj(id wire.ObjectID) *objectState {
	return s.lane.obj(id)
}

// invariants checks the safety conditions after every step.
func (h *stormHarness) invariants(prevTags map[wire.ObjectID]tag.Tag) {
	h.t.Helper()
	h.s.lane.rangeObjects(func(objID wire.ObjectID, o *objectState) {
		// Stored tags never regress.
		if prev, ok := prevTags[objID]; ok && o.tag.Less(prev) {
			h.t.Fatalf("object %d tag regressed: %s -> %s", objID, prev, o.tag)
		}
		prevTags[objID] = o.tag
		// Pending entries never linger at or below the stored tag
		// after pruning-on-apply (they would stall reads needlessly
		// and hide lost writes).
		for i := range o.pending.entries {
			pt := o.pending.entries[i].tag
			if pt.LessEq(o.tag) && len(o.parked) > 0 {
				// Allowed transiently, but parked readers with
				// barriers <= stored tag must not exist.
				for _, pr := range o.parked {
					if pr.barrier.LessEq(o.tag) {
						h.t.Fatalf("object %d: parked reader behind satisfied barrier %s (tag %s)",
							objID, pr.barrier, o.tag)
					}
				}
			}
		}
	})
}

// step injects one random event for an object below maxObj.
func (h *stormHarness) step(i, maxObj int) {
	obj := wire.ObjectID(h.rng.Intn(maxObj))
	ln := h.s.lane
	t := tag.Tag{TS: uint64(1 + h.rng.Intn(8)), ID: uint32(2 + h.rng.Intn(2))}
	val := []byte{byte(i)}
	switch h.rng.Intn(6) {
	case 0: // client write request
		ln.onWriteRequest(500, &wire.Envelope{Kind: wire.KindWriteRequest, Object: obj, ReqID: uint64(i), Value: val})
	case 1: // client read request
		ln.onReadRequest(500, &wire.Envelope{Kind: wire.KindReadRequest, Object: obj, ReqID: uint64(i)})
	case 2: // pre-write from the ring
		ln.onPreWrite(&wire.Envelope{Kind: wire.KindPreWrite, Object: obj, Tag: t, Origin: wire.ProcessID(t.ID), Value: val})
	case 3: // write from the ring (full value)
		ln.onWrite(&wire.Envelope{Kind: wire.KindWrite, Object: obj, Tag: t, Origin: wire.ProcessID(t.ID), Value: val})
	case 4: // elided write from the ring
		ln.onWrite(&wire.Envelope{Kind: wire.KindWrite, Object: obj, Tag: t, Origin: wire.ProcessID(t.ID), Flags: wire.FlagValueElided})
	case 5: // send one ring frame, if the lane has work
		if ln.hasWork() {
			ln.nextFrame()
		}
	}
}

func TestServerInvariantsUnderMessageStorm(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		h := newStormHarness(t, seed)
		prev := make(map[wire.ObjectID]tag.Tag)
		for i := 0; i < 3000; i++ {
			h.step(i, 2)
			h.invariants(prev)
		}
	}
}

func TestServerStormVariants(t *testing.T) {
	variants := []struct {
		name string
		mod  func(*Config)
	}{
		{"no_piggyback", func(c *Config) { c.DisablePiggyback = true }},
		{"no_fairness", func(c *Config) { c.DisableFairness = true }},
		{"no_elision", func(c *Config) { c.DisableValueElision = true }},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			h := newStormHarness(t, 42, v.mod)
			prev := make(map[wire.ObjectID]tag.Tag)
			for i := 0; i < 2000; i++ {
				h.step(i, 2)
				h.invariants(prev)
			}
		})
	}
}

// TestStormWithCrashes mixes crash notifications into the storm; the
// view, recovery retransmission, and orphan adoption must keep the
// invariants intact.
func TestStormWithCrashes(t *testing.T) {
	h := newStormHarness(t, 7)
	ln := h.s.lane
	prev := make(map[wire.ObjectID]tag.Tag)
	for i := 0; i < 1500; i++ {
		h.step(i, 2)
		if i == 500 {
			ln.handleCrash(2)
		}
		if i == 1000 {
			ln.handleCrash(3)
		}
		h.invariants(prev)
	}
	if ln.view.AliveCount() != 1 {
		t.Fatalf("alive count = %d, want 1", ln.view.AliveCount())
	}
	for i := 0; i < 100; i++ {
		if ln.hasWork() {
			ln.nextFrame()
		}
	}
}

// TestNextFrameConsistency checks the queue handler's frame rules
// across random queue contents: a frame stays within its budget, every
// envelope it carries was popped from the forward queue or the write
// queue, and its header's lane byte is 0 — for the classic pair, the
// trains, and both ablations.
func TestNextFrameConsistency(t *testing.T) {
	rows := []struct {
		name   string
		mod    func(*Config)
		budget int
	}{
		{"train1", func(c *Config) { c.TrainLength = 1 }, 2},
		{"train4", func(c *Config) { c.TrainLength = 4 }, 4},
		{"train8", func(c *Config) { c.TrainLength = 8 }, 8},
		{"no_fairness", func(c *Config) { c.DisableFairness = true }, 1},
		{"no_piggyback", func(c *Config) { c.DisablePiggyback = true }, 1},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			h := newStormHarness(t, 99, r.mod)
			ln := h.s.lane
			for i := 0; i < 5000; i++ {
				h.step(i, 8)
				if !ln.hasWork() {
					continue
				}
				fq, wq := ln.fq.len(), len(ln.writeQueue)
				of := ln.nextFrame()
				n := of.f.EnvelopeCount()
				if n < 1 || n > r.budget {
					t.Fatalf("step %d: frame of %d envelopes, budget %d", i, n, r.budget)
				}
				if shrink := fq - ln.fq.len() + wq - len(ln.writeQueue); shrink != n {
					t.Fatalf("step %d: frame carries %d envelopes, queues shrank by %d", i, n, shrink)
				}
				if of.f.Lane != 0 {
					t.Fatalf("step %d: frame carries lane %d, want 0", i, of.f.Lane)
				}
			}
		})
	}
}

// TestRecoveryRetransmitsPendingAndValue checks paper lines 85-92
// directly: after the successor crashes, the forward queue holds the
// current value of every object as a write and every pending pre-write.
func TestRecoveryRetransmitsPendingAndValue(t *testing.T) {
	const objects = 8
	stored := tag.Tag{TS: 3, ID: 3}
	orphan := tag.Tag{TS: 4, ID: 2}
	pending := tag.Tag{TS: 5, ID: 3}
	h := newStormHarness(t, 0)
	ln := h.s.lane
	// Install a value and two pending pre-writes on every object.
	for obj := wire.ObjectID(0); obj < objects; obj++ {
		ln.onWrite(&wire.Envelope{Kind: wire.KindWrite, Object: obj, Tag: stored, Origin: 3, Value: []byte("stored")})
		ln.onPreWrite(&wire.Envelope{Kind: wire.KindPreWrite, Object: obj, Tag: orphan, Origin: 2, Value: []byte("p1")})
		ln.onPreWrite(&wire.Envelope{Kind: wire.KindPreWrite, Object: obj, Tag: pending, Origin: 3, Value: []byte("p2")})
	}
	// Forward everything, so the forward queue starts out empty.
	for ln.hasWork() {
		ln.nextFrame()
	}
	for obj := wire.ObjectID(0); obj < objects; obj++ {
		if n := h.s.obj(obj).pending.size(); n != 2 {
			t.Fatalf("object %d pending = %d, want 2", obj, n)
		}
	}

	// Successor 2 crashes: the lane re-queues every object's value and
	// pending pre-writes, and, as the alive predecessor of 2 in ring
	// order 1->2->3, turns 2's orphaned pre-write around into its write
	// phase.
	ln.handleCrash(2)
	type requeued struct{ value, orphanWrite, preWrite bool }
	got := make(map[wire.ObjectID]*requeued)
	for _, origin := range ln.fq.order {
		for _, env := range ln.fq.envelopesOf(origin) {
			r := got[env.Object]
			if r == nil {
				r = &requeued{}
				got[env.Object] = r
			}
			switch {
			case env.Kind == wire.KindWrite && env.Tag == stored:
				r.value = true
			case env.Kind == wire.KindWrite && env.Tag == orphan:
				r.orphanWrite = true
			case env.Kind == wire.KindPreWrite && env.Tag == pending:
				r.preWrite = true
			}
		}
	}
	for obj := wire.ObjectID(0); obj < objects; obj++ {
		r := got[obj]
		switch {
		case r == nil || !r.value:
			t.Fatalf("recovery did not retransmit object %d's current value", obj)
		case !r.preWrite:
			t.Fatalf("recovery did not retransmit object %d's pending pre-write", obj)
		case !r.orphanWrite:
			t.Fatalf("object %d's orphaned pre-write was not turned around", obj)
		}
	}
}

// TestCrashPiggybackDropped: route hands every frame whose primary is a
// crash notice to the control plane, so a crash envelope can reach a lane
// only piggybacked on a ring frame, which no server sends. The lane
// drops it like any unexpected kind: neither the lane's view nor the
// control plane's changes, and nothing is handed to the control inbox,
// while the frame's pre-write is handled as usual.
func TestCrashPiggybackDropped(t *testing.T) {
	h := newStormHarness(t, 0)
	ln := h.s.lane
	pw := tag.Tag{TS: 1, ID: 3}
	f := wire.NewFrame(wire.Envelope{Kind: wire.KindPreWrite, Object: 5, Tag: pw, Origin: 3, Value: []byte("p")})
	f.Piggyback = &wire.Envelope{Kind: wire.KindCrash, Origin: 2, Epoch: 1}
	ln.handleInbound(transport.Inbound{From: 3, Frame: f})

	if o := ln.lookup(5); o == nil || o.maxPending() != pw {
		t.Fatal("the frame's pre-write was not handled")
	}
	if ln.view.AliveCount() != 3 || !ln.view.Alive(2) {
		t.Fatalf("lane view changed: alive %d", ln.view.AliveCount())
	}
	if !h.s.view.Alive(2) {
		t.Fatal("control-plane view changed")
	}
	if n := len(h.s.ctrlc); n != 0 {
		t.Fatalf("piggybacked crash handed to the control plane (%d queued)", n)
	}
}

// TestLaneRouting pins the demux contract: client requests and ring
// frames land on the lane, crash notices land on the control inbox, and
// ring frames whose header names a lane other than 0 are dropped and
// counted, not delivered.
func TestLaneRouting(t *testing.T) {
	s := newStormHarness(t, 0).s
	for obj := wire.ObjectID(0); obj < 16; obj++ {
		in := transport.Inbound{Frame: wire.NewFrame(wire.Envelope{Kind: wire.KindWriteRequest, Object: obj, ReqID: 1, Value: []byte("v")})}
		if got := s.route(&in); got != laneRoute {
			t.Fatalf("write request for object %d routed to %d, want the lane", obj, got)
		}
		rin := transport.Inbound{Frame: wire.NewFrame(wire.Envelope{Kind: wire.KindPreWrite, Object: obj, Tag: tag.Tag{TS: 1, ID: 2}, Origin: 2})}
		if got := s.route(&rin); got != laneRoute {
			t.Fatalf("ring frame for object %d routed to %d, want the lane", obj, got)
		}
	}
	cin := transport.Inbound{Frame: wire.NewFrame(wire.Envelope{Kind: wire.KindCrash, Origin: 2, Epoch: 1})}
	if got := s.route(&cin); got != ctrlRoute {
		t.Fatalf("crash notice routed to %d, want the control plane", got)
	}
	if s.CounterSnapshot().LaneDrops != 0 {
		t.Fatal("lane-0 traffic counted as lane drops")
	}
	// A nonzero lane byte (a multi-lane peer from an older build, or a
	// header that lies) is dropped and counted.
	for _, lane := range []uint8{1, 7} {
		stray := transport.Inbound{Frame: wire.Frame{Env: wire.Envelope{Kind: wire.KindWrite, Object: 1, Tag: tag.Tag{TS: 2, ID: 2}, Origin: 2}, Lane: lane}}
		if got := s.route(&stray); got != transport.RouteDrop {
			t.Fatalf("lane-%d frame routed to %d, want RouteDrop", lane, got)
		}
	}
	if n := s.CounterSnapshot().LaneDrops; n != 2 {
		t.Fatalf("LaneDrops = %d after two stray frames, want 2", n)
	}
}
