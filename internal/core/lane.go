package core

import (
	"sync/atomic"

	"repro/internal/ring"
	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/wire"
)

// lane is the server's queue handler, the paper's single event loop:
// it owns the write queue, the forward queue with its fairness table,
// the in-flight write bookkeeping and a one-frame send slot — the full
// §3 algorithm (DESIGN.md §7). A server has exactly one: splitting the
// forward queue over several lanes made trains shorter and, with the
// WAL on, syncs more frequent, and lost on every write workload
// measured.
//
// All lane fields are confined to the lane's event-loop goroutine, and
// so are the per-object states in its object table: the lane is the
// only process that holds a register's replica state, as in the paper.
// The one exception is objectState.snap, the published read snapshot,
// which any goroutine may load (DESIGN.md §10).
type lane struct {
	srv *Server

	// objs is the lane's object table, the replica state of every
	// object, spread over objSlots copy-on-write maps.
	// Only the lane goroutine (or the single-threaded replay before
	// Start) writes it, through obj; any goroutine may read it through
	// lookup. Creating an object copies one slot's map, so creation
	// costs a copy of 1/objSlots of the lane's objects, not of all.
	objs [objSlots]atomic.Pointer[map[wire.ObjectID]*objectState]

	// view is the lane's ring view replica: the control plane's view is
	// confined to the control-plane goroutine. It starts identical to
	// that view and transitions only on crash events the control plane
	// hands over, so the two converge; between events they may briefly
	// disagree on the successor, which is the same asynchrony servers
	// already tolerate of each other.
	view *ring.View

	// inbox receives the lane's demuxed inbound frames.
	inbox chan transport.Inbound
	// crashc receives crash events from the control plane.
	crashc chan wire.ProcessID
	// slot is the lane's send slot: it holds one token while the sender
	// is free. The event loop takes the token, builds the next frame
	// (nextFrame) and hands it over on ringOut; the sender returns the
	// token once the frame is on the transport. So a frame is built only
	// when the link is free, as in the paper's queue handler, at most one
	// frame is in flight locally, and ringOut (capacity 1) never blocks.
	slot    chan struct{}
	ringOut chan outFrame
	// walSeq is the highest WAL sequence this lane has staged; event-
	// loop-confined like the rest of the lane state.
	walSeq uint64
	// replayVals holds the client values of replayed in-flight own
	// writes (keyed like myWrites) between WAL replay and the startup
	// retransmission; nil afterwards and during normal operation.
	replayVals map[writeKey][]byte

	// writeQueue holds client writes not yet initiated (paper:
	// write_queue).
	writeQueue []writeIntent
	// fq is the forward queue plus the nb_msg fairness table.
	fq *fairQueue
	// myWrites tracks writes this server originated.
	myWrites map[writeKey]ownWrite

	// envs and initiated are nextFrame's scratch: the frame's envelopes
	// and the objects it initiated on, reused across frames.
	envs      []wire.Envelope
	initiated []*objectState
}

// objSlots is the fanout of the lane's object table: 64 slots, indexed
// by the top objSlotBits bits of the object's hash.
const (
	objSlotBits = 6
	objSlots    = 1 << objSlotBits
)

// objSlot returns the slot of the lane's object table holding id: the
// top bits of Knuth's multiplicative hash, so dense sequential object
// ids spread over every slot.
func objSlot(id wire.ObjectID) int {
	return int(uint32(id) * 2654435761 >> (32 - objSlotBits))
}

// obj returns the replica state for an object, creating it on first
// use. Only the lane goroutine calls it (or the replay
// before Start), so the copy-on-write slot has a single writer.
func (ln *lane) obj(id wire.ObjectID) *objectState {
	slot := &ln.objs[objSlot(id)]
	var cur map[wire.ObjectID]*objectState
	if m := slot.Load(); m != nil {
		cur = *m
		if o, ok := cur[id]; ok {
			return o
		}
	}
	next := make(map[wire.ObjectID]*objectState, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	o := newObjectState()
	next[id] = o
	slot.Store(&next)
	return o
}

// lookup returns the replica state for an object, or nil when the lane
// has never touched it: one atomic load and one lookup in an immutable
// map, safe from any goroutine. Other goroutines may use only the
// returned state's snap.
func (ln *lane) lookup(id wire.ObjectID) *objectState {
	if m := ln.objs[objSlot(id)].Load(); m != nil {
		return (*m)[id]
	}
	return nil
}

// rangeObjects calls fn for every object in the lane's table. Lane
// goroutine (or replay) only.
func (ln *lane) rangeObjects(fn func(wire.ObjectID, *objectState)) {
	for i := range ln.objs {
		if m := ln.objs[i].Load(); m != nil {
			for id, o := range *m {
				fn(id, o)
			}
		}
	}
}

// loop owns the lane's algorithm state. Each iteration first drains
// every event already delivered to the lane (without blocking), then
// waits for the next event or, when it has something to send, for the
// send slot; holding the slot it builds and hands over one frame from
// the latest queues (nextFrame). The frame is built when the sender is
// free, never earlier, so the fairness decision always reflects the
// state at send time and nothing is built that is not sent.
//
// The drain-before-send order is what lets frame trains form: handling
// one event per send kept the forward queue at depth <=1 under load —
// every arriving envelope left on its own frame before the next could
// join it — so per-frame costs were paid per envelope no matter the
// TrainLength. Draining the backlog first batches a burst of arrivals
// into one train. The drain is capped at laneInboxCapacity events per
// iteration — without the cap, inbound arriving as fast as it is
// handled would keep the drain spinning and starve the send — so every
// send waits for at most one inbox-full of events, and an idle lane
// still forwards every envelope immediately.
func (ln *lane) loop() {
	s := ln.srv
	defer s.wg.Done()
	for {
	drain:
		for i := 0; i < laneInboxCapacity; i++ {
			select {
			case in := <-ln.inbox:
				ln.handleInbound(in)
			case crashed := <-ln.crashc:
				ln.handleCrash(crashed)
			default:
				break drain
			}
		}

		var slot chan struct{}
		if ln.hasWork() {
			slot = ln.slot
		}
		select {
		case in := <-ln.inbox:
			ln.handleInbound(in)
		case crashed := <-ln.crashc:
			ln.handleCrash(crashed)
		case <-slot:
			ln.ringOut <- ln.nextFrame()
		case <-s.stopc:
			return
		}
	}
}

// senderLoop drains the lane's outbound channel onto the transport's
// one link to the successor and returns the send slot after each frame. A send failure is logged and dropped: the failure
// detector will report the peer and recovery retransmits whatever
// mattered.
//
// With a WAL the sender is also the durability gate: it blocks in
// WaitLane until one group-commit sync covers the frame's seq. The gate
// lives here, off the event loop, so the lane keeps draining its inbox
// while the sync is in flight — the fsync is amortized per train, not
// paid per envelope. The slot stays out while the sender waits, so the
// next frame is built from everything that arrived meanwhile.
//
// The transport's zero-copy egress (DESIGN.md §14) encodes frames at
// enqueue time — inside Send, on this goroutine. That keeps the gate
// sound by construction: the gate runs strictly before the Send call,
// so a train is encoded and queued for the wire only after the
// fdatasync covering its records has completed. No encoded byte of a
// gated train exists anywhere (pool, queue, iovec, kernel) before its
// durability is settled — acks still imply durability.
func (ln *lane) senderLoop() {
	s := ln.srv
	defer s.wg.Done()
	for {
		select {
		case of := <-ln.ringOut:
			if s.wal != nil {
				if err := s.wal.WaitLane(0, of.seq, s.stopc); err != nil {
					if err == wal.ErrAborted || err == wal.ErrClosed {
						return // stopping; the unsent frame dies with us
					}
					// Disk failure: keep the ring alive (availability
					// over durability), loudly and once.
					s.walFailOnce.Do(func() {
						s.log.Error("wal failed; ring continues without durability", "err", err)
					})
				}
			}
			if err := s.ep.Send(of.to, of.f); err != nil {
				s.log.Debug("ring send failed", "to", of.to, "err", err)
			}
			ln.slot <- struct{}{}
		case <-s.stopc:
			return
		}
	}
}

// handleInbound dispatches one received frame: every envelope of a
// piggybacked or train frame, in frame order — a K-envelope train is
// processed exactly as K consecutive frames off the same link would be.
// Envelopes are visited in place (no per-frame slice, no per-envelope
// copy); the handlers may keep the value slice but never retain the
// *Envelope itself.
func (ln *lane) handleInbound(in transport.Inbound) {
	ln.handleEnvelope(in.From, &in.Frame.Env)
	if in.Frame.Piggyback != nil {
		ln.handleEnvelope(in.From, in.Frame.Piggyback)
	}
	for i := range in.Frame.Extra {
		ln.handleEnvelope(in.From, &in.Frame.Extra[i])
	}
}

// handleEnvelope dispatches one received envelope.
func (ln *lane) handleEnvelope(from wire.ProcessID, env *wire.Envelope) {
	if err := env.Validate(); err != nil {
		ln.srv.log.Debug("dropping invalid envelope", "err", err)
		return
	}
	switch env.Kind {
	case wire.KindWriteRequest:
		ln.onWriteRequest(from, env)
	case wire.KindReadRequest:
		ln.onReadRequest(from, env)
	case wire.KindPreWrite:
		ln.onPreWrite(env)
	case wire.KindWrite:
		ln.onWrite(env)
	default:
		ln.srv.log.Debug("dropping unexpected kind", "kind", env.Kind)
	}
}

// onWriteRequest implements paper lines 18-20: queue the client write
// until the fairness rule lets this server initiate it.
func (ln *lane) onWriteRequest(from wire.ProcessID, env *wire.Envelope) {
	ln.writeQueue = append(ln.writeQueue, writeIntent{
		client: from,
		reqID:  env.ReqID,
		object: env.Object,
		value:  env.Value,
	})
}

// onReadRequest implements paper lines 76-84: serve locally when no
// pre-write is outstanding (or the stored tag already dominates all of
// them), otherwise park the read behind the highest pending tag.
//
// Most servable reads never get here — the demux serves them from the
// published snapshot on the delivering goroutine (Server.route). The
// lane sees the rest (cold objects, outstanding barriers, pre-demux or
// non-demux deliveries) plus snapshot races, so it retries the snapshot
// once, then serves or parks. The decision runs on the lane, so no
// apply can interleave with it. The ack goes through the
// non-blocking ack sender, so the lane never waits on a client.
func (ln *lane) onReadRequest(from wire.ProcessID, env *wire.Envelope) {
	s := ln.srv
	if s.serveReadFromSnapshot(from, env) {
		return
	}
	o := ln.obj(env.Object)
	if o.readableNow() {
		s.ackRead(from, env.ReqID, env.Object, o)
		o.publish()
		return
	}
	o.park(from, env.ReqID, o.maxPending())
}

// onPreWrite implements paper lines 29-40 plus the crash-adoption rule.
func (ln *lane) onPreWrite(env *wire.Envelope) {
	s := ln.srv
	o := ln.obj(env.Object)
	key := writeKey{object: env.Object, tag: env.Tag}

	if env.Origin == s.cfg.ID {
		// My own pre_write completed the ring: every alive server has
		// seen it. Install the value and start the write phase (paper
		// lines 33-38).
		w, ok := ln.myWrites[key]
		if !ok || w.phase != phasePreWrite {
			return // duplicate from recovery retransmission
		}
		w.phase = phaseWrite
		ln.myWrites[key] = w
		wenv := wire.Envelope{
			Kind:   wire.KindWrite,
			Object: env.Object,
			Tag:    env.Tag,
			Origin: s.cfg.ID,
		}
		if s.cfg.DisableValueElision {
			wenv.Value = env.Value
		} else {
			// Every server holds the value in its pending set from
			// the pre-write phase; ship only the tag.
			wenv.Flags = wire.FlagValueElided
		}
		s.applyAndRelease(env.Object, o, env.Tag, env.Value)
		o.prune(env.Tag)
		o.publish()
		// Value elided like the wire message: replay resolves it from
		// the pending entry the covering RecInit re-creates.
		ln.walStage(&wal.Record{
			Type:   wal.RecWrite,
			Object: env.Object,
			Tag:    env.Tag,
			Origin: s.cfg.ID,
		})
		ln.fq.push(wenv)
		return
	}

	if ln.isOrphanAdopter(env.Origin) {
		// The originator crashed and this server is the alive
		// predecessor of its ring position: the pre_write has, by
		// construction, traversed every other alive server, so turn it
		// around into its write phase on the originator's behalf
		// (DESIGN.md §3.4).
		s.applyAndRelease(env.Object, o, env.Tag, env.Value)
		o.prune(env.Tag)
		o.publish()
		// The adopted write carries its value: the originator's log died
		// with it, so this server's own RecPreWrite may be the only
		// covering record — and a restart mid-adoption must not depend
		// on it having existed.
		ln.walStage(&wal.Record{
			Type:   wal.RecWrite,
			Object: env.Object,
			Tag:    env.Tag,
			Origin: env.Origin,
			Flags:  wal.FlagHasValue,
			Value:  env.Value,
		})
		ln.fq.push(wire.Envelope{
			Kind:   wire.KindWrite,
			Object: env.Object,
			Tag:    env.Tag,
			Origin: env.Origin,
			Value:  env.Value,
		})
		return
	}

	// Paper line 71 records a forwarded pre-write in the pending set on
	// forward; recording it here, at receive, leaves the queue handler
	// nothing to do for a forward and publishes the raised barrier
	// before the forward is even queued. Atomicity is preserved (reads
	// park earlier, never later).
	added := o.addPending(env.Tag, env.Value)
	o.publish()
	if added {
		// Staged before the forward leaves (the train gate waits on it),
		// so a restart re-erects exactly the read barriers this server
		// may have told the ring about. Refused duplicates stage
		// nothing: replaying one would resurrect a pruned entry.
		ln.walStage(&wal.Record{
			Type:   wal.RecPreWrite,
			Object: env.Object,
			Tag:    env.Tag,
			Origin: env.Origin,
			Flags:  wal.FlagHasValue,
			Value:  env.Value,
		})
	}
	ln.fq.push(*env)
}

// onWrite implements paper lines 41-52 plus the crash-absorption rule.
func (ln *lane) onWrite(env *wire.Envelope) {
	s := ln.srv

	if env.Origin == s.cfg.ID {
		// My own write completed the ring: acknowledge the client
		// (paper lines 49-51). Only the lane's write bookkeeping is
		// touched, not the object's state. Recovery can re-deliver
		// writes whose bookkeeping is gone; those are absorbed silently.
		key := writeKey{object: env.Object, tag: env.Tag}
		w, ok := ln.myWrites[key]
		if ok && w.phase == phaseWrite {
			delete(ln.myWrites, key)
			// RecAck only trims replayed retransmission; it is not sync-
			// gated (the ack itself is not a ring frame) and losing it
			// costs one duplicate ack after a restart, never atomicity.
			ln.walStage(&wal.Record{
				Type:   wal.RecAck,
				Object: env.Object,
				Tag:    env.Tag,
				Origin: s.cfg.ID,
				Client: w.client,
				ReqID:  w.reqID,
			})
			s.enqueueAck(w.client, wire.NewFrame(wire.Envelope{
				Kind:   wire.KindWriteAck,
				Object: env.Object,
				Tag:    env.Tag,
				ReqID:  w.reqID,
			}))
		}
		return
	}

	o := ln.obj(env.Object)
	absorb := ln.isOrphanAdopter(env.Origin)
	elided := env.Flags&wire.FlagValueElided != 0
	applied := false
	if v, ok := s.resolveWriteValue(o, env); ok {
		applied = s.applyAndRelease(env.Object, o, env.Tag, v)
	}
	o.prune(env.Tag)
	o.publish()
	if applied {
		rec := wal.Record{
			Type:   wal.RecWrite,
			Object: env.Object,
			Tag:    env.Tag,
			Origin: env.Origin,
		}
		if !elided {
			// A full-value write (recovery retransmission) may have no
			// covering pre-write record in this server's log.
			rec.Flags = wal.FlagHasValue
			rec.Value = env.Value
		}
		ln.walStage(&rec)
	}
	if absorb {
		return // the originator is gone and the ring is covered
	}
	ln.fq.push(*env)
}

// isOrphanAdopter reports whether origin has crashed and this server is
// the alive predecessor of its ring position — the server responsible
// for finishing or absorbing the messages origin originated. The lane
// answers from its own view replica: before it has processed the crash
// hand-off it forwards the message instead, and converts it from its
// forward queue when the hand-off arrives, exactly as a server whose
// failure detector fires late would.
func (ln *lane) isOrphanAdopter(origin wire.ProcessID) bool {
	if ln.view.Alive(origin) || !ln.view.Contains(origin) {
		return false
	}
	return ln.view.Predecessor(origin) == ln.srv.cfg.ID
}
