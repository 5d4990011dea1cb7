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
// calls are synchronous and deterministic. Events are routed to the lane
// owning the event's object, exactly as the transport demux would.
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

// lane returns the lane owning obj, the one the demux would deliver to.
func (h *stormHarness) lane(obj wire.ObjectID) *lane {
	return h.s.lanes[h.s.laneFor(obj)]
}

// obj returns the replica state for an object from its owning lane's
// table, creating it on first use. Only for tests that drive the
// handlers synchronously, with no lane goroutine running.
func (s *Server) obj(id wire.ObjectID) *objectState {
	return s.lanes[s.laneFor(id)].obj(id)
}

// rangeAllObjects walks every lane's object table.
func (s *Server) rangeAllObjects(fn func(wire.ObjectID, *objectState)) {
	for _, ln := range s.lanes {
		ln.rangeObjects(fn)
	}
}

// crashAll fans a crash event out to every lane, as the control plane
// does.
func (h *stormHarness) crashAll(crashed wire.ProcessID) {
	for _, ln := range h.s.lanes {
		ln.handleCrash(crashed)
	}
}

// invariants checks the safety conditions after every step.
func (h *stormHarness) invariants(prevTags map[wire.ObjectID]tag.Tag) {
	h.t.Helper()
	h.s.rangeAllObjects(func(objID wire.ObjectID, o *objectState) {
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
	ln := h.lane(obj)
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
	case 5: // send one ring frame on the object's lane, if it has work
		if ln.hasWork() {
			ln.nextFrame()
		}
	}
}

func TestServerInvariantsUnderMessageStorm(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		h := newStormHarness(t, seed, func(c *Config) { c.WriteLanes = 1 })
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
		{"single_lane", func(c *Config) { c.WriteLanes = -1 }},
		{"many_lanes", func(c *Config) { c.WriteLanes = 8 }},
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

// TestMultiLaneStormWithCrashes is the lane-sharded storm: 8+ objects
// spread over 4 lanes, with servers crashing mid-storm. Every lane must
// keep the invariants intact through its own view transitions, recovery
// retransmission, and orphan adoption — including the window where some
// lanes have processed a crash and others have not (the harness
// staggers the fan-out across steps to model it).
func TestMultiLaneStormWithCrashes(t *testing.T) {
	const objects = 8
	h := newStormHarness(t, 7, func(c *Config) { c.WriteLanes = 4 })
	if len(h.s.lanes) != 4 {
		t.Fatalf("lanes = %d, want 4", len(h.s.lanes))
	}
	// The 8 objects must actually exercise more than one lane.
	lanesHit := map[int]bool{}
	for obj := 0; obj < objects; obj++ {
		lanesHit[h.s.laneFor(wire.ObjectID(obj))] = true
	}
	if len(lanesHit) < 2 {
		t.Fatalf("objects 0..%d all hash to one lane", objects-1)
	}
	prev := make(map[wire.ObjectID]tag.Tag)
	for i := 0; i < 3000; i++ {
		h.step(i, objects)
		// Stagger the crash fan-out: lanes learn of the crash one step
		// apart, mid-storm, exactly what the asynchronous control-plane
		// fan-out allows.
		if i >= 1000 && i < 1000+len(h.s.lanes) {
			h.s.lanes[i-1000].handleCrash(2)
		}
		if i == 2000 {
			h.crashAll(3)
		}
		h.invariants(prev)
	}
	for _, ln := range h.s.lanes {
		if ln.view.AliveCount() != 1 {
			t.Fatalf("lane %d alive count = %d, want 1", ln.idx, ln.view.AliveCount())
		}
	}
	// With everyone else dead, the server is its own successor and every
	// lane's queue handler must still make progress (self-delivery
	// happens via the transport, which is not running here; building
	// frames must at least not wedge or panic).
	for i := 0; i < 100; i++ {
		for _, ln := range h.s.lanes {
			if ln.hasWork() {
				ln.nextFrame()
			}
		}
	}
}

// TestStormWithCrashes mixes crash notifications into the single-lane
// storm; the view, recovery retransmission, and orphan adoption must
// keep the invariants intact.
func TestStormWithCrashes(t *testing.T) {
	h := newStormHarness(t, 7, func(c *Config) { c.WriteLanes = 1 })
	ln := h.s.lanes[0]
	prev := make(map[wire.ObjectID]tag.Tag)
	for i := 0; i < 1500; i++ {
		h.step(i, 2)
		if i == 500 {
			h.crashAll(2)
		}
		if i == 1000 {
			h.crashAll(3)
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
// across random queue contents and every lane: a frame stays within its
// budget, every envelope it carries was popped from the forward queue or
// the write queue, and it carries the lane's own byte — for the classic
// pair, the trains, and both ablations.
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
			h := newStormHarness(t, 99, func(c *Config) { c.WriteLanes = 4 }, r.mod)
			for i := 0; i < 5000; i++ {
				h.step(i, 8)
				ln := h.s.lanes[i%len(h.s.lanes)]
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
				if of.f.Lane != uint8(ln.idx) {
					t.Fatalf("step %d: frame carries lane %d, want %d", i, of.f.Lane, ln.idx)
				}
			}
		})
	}
}

// TestRecoveryRetransmitsPendingAndValue checks paper lines 85-92
// directly: after the successor crashes, each lane's forward queue holds
// the current value of every object the lane owns as a write and every
// pending pre-write — and nothing of another lane's objects, at one lane
// and at four.
func TestRecoveryRetransmitsPendingAndValue(t *testing.T) {
	const objects = 8
	stored := tag.Tag{TS: 3, ID: 3}
	orphan := tag.Tag{TS: 4, ID: 2}
	pending := tag.Tag{TS: 5, ID: 3}
	for _, lanes := range []int{1, 4} {
		h := newStormHarness(t, 0, func(c *Config) { c.WriteLanes = lanes })
		own := make([]map[wire.ObjectID]bool, len(h.s.lanes))
		for i := range own {
			own[i] = make(map[wire.ObjectID]bool)
		}
		// Install a value and two pending pre-writes on every object.
		for obj := wire.ObjectID(0); obj < objects; obj++ {
			ln := h.lane(obj)
			own[ln.idx][obj] = true
			ln.onWrite(&wire.Envelope{Kind: wire.KindWrite, Object: obj, Tag: stored, Origin: 3, Value: []byte("stored")})
			ln.onPreWrite(&wire.Envelope{Kind: wire.KindPreWrite, Object: obj, Tag: orphan, Origin: 2, Value: []byte("p1")})
			ln.onPreWrite(&wire.Envelope{Kind: wire.KindPreWrite, Object: obj, Tag: pending, Origin: 3, Value: []byte("p2")})
		}
		for i, mine := range own {
			if len(mine) == 0 {
				t.Fatalf("lanes=%d: lane %d owns none of objects 0..%d", lanes, i, objects-1)
			}
		}
		// Forward everything, so every forward queue starts out empty.
		for _, ln := range h.s.lanes {
			for ln.hasWork() {
				ln.nextFrame()
			}
		}
		for obj := wire.ObjectID(0); obj < objects; obj++ {
			if n := h.s.obj(obj).pending.size(); n != 2 {
				t.Fatalf("lanes=%d: object %d pending = %d, want 2", lanes, obj, n)
			}
		}

		// Successor 2 crashes: every lane re-queues its objects' values
		// and pending pre-writes, and, as the alive predecessor of 2 in
		// ring order 1->2->3, turns 2's orphaned pre-write around into
		// its write phase.
		h.crashAll(2)
		for _, ln := range h.s.lanes {
			type requeued struct{ value, orphanWrite, preWrite bool }
			got := make(map[wire.ObjectID]*requeued)
			for _, origin := range ln.fq.order {
				for _, env := range ln.fq.envelopesOf(origin) {
					if !own[ln.idx][env.Object] {
						t.Fatalf("lanes=%d: lane %d re-queued object %d, owned by lane %d",
							lanes, ln.idx, env.Object, h.s.laneFor(env.Object))
					}
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
			for obj := range own[ln.idx] {
				r := got[obj]
				switch {
				case r == nil || !r.value:
					t.Fatalf("lanes=%d: recovery did not retransmit object %d's current value", lanes, obj)
				case !r.preWrite:
					t.Fatalf("lanes=%d: recovery did not retransmit object %d's pending pre-write", lanes, obj)
				case !r.orphanWrite:
					t.Fatalf("lanes=%d: object %d's orphaned pre-write was not turned around", lanes, obj)
				}
			}
		}
	}
}

// TestCrashPiggybackDropped: route hands every frame whose primary is a
// crash notice to the control plane, so a crash envelope can reach a lane
// only piggybacked on a ring frame, which no server sends. The lane
// retires it like any unexpected kind: no lane's view and not the
// control plane's changes, and nothing is handed to the control inbox,
// while the frame's pre-write is handled as usual.
func TestCrashPiggybackDropped(t *testing.T) {
	h := newStormHarness(t, 0, func(c *Config) { c.WriteLanes = 4 })
	ln := h.lane(5)
	pw := tag.Tag{TS: 1, ID: 3}
	f := wire.NewLaneFrame(wire.Envelope{Kind: wire.KindPreWrite, Object: 5, Tag: pw, Origin: 3, Value: []byte("p")}, uint8(ln.idx))
	f.Piggyback = &wire.Envelope{Kind: wire.KindCrash, Origin: 2, Epoch: 1}
	ln.handleInbound(transport.Inbound{From: 3, Frame: f})

	if o := ln.lookup(5); o == nil || o.maxPending() != pw {
		t.Fatal("the frame's pre-write was not handled")
	}
	for _, l := range h.s.lanes {
		if l.view.AliveCount() != 3 || !l.view.Alive(2) {
			t.Fatalf("lane %d view changed: alive %d", l.idx, l.view.AliveCount())
		}
	}
	if !h.s.view.Alive(2) {
		t.Fatal("control-plane view changed")
	}
	if n := len(h.s.ctrlc); n != 0 {
		t.Fatalf("piggybacked crash handed to the control plane (%d queued)", n)
	}
}

// TestLaneRouting pins the demux contract: ring frames land on the lane
// named in their header (or, preferentially, the lane their link was
// pinned to at handshake time), client requests land on the object's
// lane, crash notices land on the control inbox, and ring frames naming
// a lane outside the local fanout are dropped, not misrouted.
func TestLaneRouting(t *testing.T) {
	h := newStormHarness(t, 0, func(c *Config) { c.WriteLanes = 4 })
	s := h.s
	for obj := wire.ObjectID(0); obj < 16; obj++ {
		want := s.laneFor(obj)
		in := transport.Inbound{Frame: wire.NewFrame(wire.Envelope{Kind: wire.KindWriteRequest, Object: obj, ReqID: 1, Value: []byte("v")})}
		if got := s.route(&in); got != want {
			t.Fatalf("write request for object %d routed to %d, want %d", obj, got, want)
		}
		rin := transport.Inbound{Frame: wire.NewLaneFrame(wire.Envelope{Kind: wire.KindPreWrite, Object: obj, Tag: tag.Tag{TS: 1, ID: 2}, Origin: 2}, uint8(want))}
		if got := s.route(&rin); got != want {
			t.Fatalf("ring frame for lane %d routed to %d", want, got)
		}
	}
	// A lane-pinned link overrides the frame header.
	pinned := transport.Inbound{
		Frame:    wire.NewLaneFrame(wire.Envelope{Kind: wire.KindPreWrite, Object: 1, Tag: tag.Tag{TS: 1, ID: 2}, Origin: 2}, 0),
		LinkLane: 3,
	}
	if got := s.route(&pinned); got != 2 {
		t.Fatalf("lane-pinned frame routed to %d, want negotiated lane 2", got)
	}
	cin := transport.Inbound{Frame: wire.NewFrame(wire.Envelope{Kind: wire.KindCrash, Origin: 2, Epoch: 1})}
	if got := s.route(&cin); got != len(s.lanes) {
		t.Fatalf("crash notice routed to %d, want control index %d", got, len(s.lanes))
	}
	// A lane byte beyond the local fanout (a WriteLanes-mismatched peer
	// on an unvalidated link) is dropped and counted, never wrapped onto
	// an arbitrary lane.
	stray := transport.Inbound{Frame: wire.NewLaneFrame(wire.Envelope{Kind: wire.KindPreWrite, Object: 1, Tag: tag.Tag{TS: 2, ID: 2}, Origin: 2}, 7)}
	if got := s.route(&stray); got != transport.RouteDrop {
		t.Fatalf("stray-lane frame routed to %d, want RouteDrop", got)
	}
	if s.CounterSnapshot().LaneDrops == 0 {
		t.Fatal("stray-lane drop was not counted")
	}
}
