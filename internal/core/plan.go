package core

import (
	"repro/internal/tag"
	"repro/internal/wal"
	"repro/internal/wire"
)

// planItem describes one envelope the next ring frame will carry: either
// the initiation of a local client write (a fresh pre_write) or the
// forwarding of a queued message.
type planItem struct {
	// initiate is true when the item starts a queued local write; env
	// then holds the freshly tagged pre_write. A plan's initiations
	// consume writeQueue entries front to back, so commitItem always
	// pops writeQueue[0].
	initiate bool
	// fifo marks an item chosen by the DisableFairness ablation.
	fifo bool
	// origin is the fairness origin charged for the item.
	origin wire.ProcessID
	// kind is the exact envelope kind, used to pop the same message the
	// plan selected.
	kind wire.Kind
	// env is the envelope to put on the wire.
	env wire.Envelope
}

// sendPlan is the queue handler's decision for the next ring send (paper
// lines 53-75), generalized from "primary plus optional piggyback" to a
// train of up to TrainLength envelopes (DESIGN.md §9). Planning is free
// of side effects: the lane's event loop offers the planned frame to the
// ring sender and only commits the bookkeeping if that offer is the
// select case that fires. Crash notices no longer appear here — the
// control plane sends them itself, off the data lanes.
type sendPlan struct {
	ok    bool
	frame wire.Frame
	// items describe the frame's envelopes in order; commitRingSend
	// applies them one by one. The backing array is lane-owned scratch,
	// valid until the next planRingSend on the same lane (plan and
	// commit happen within one event-loop iteration).
	items []planItem
}

// planRingSend computes the lane's next ring send from current state,
// without mutating anything. The frame carries the lane index so the
// receiver demultiplexes it straight to its own copy of this lane.
//
// The result is memoized: the event loop calls this every select
// iteration, but the plan only depends on lane state that read traffic
// never touches (stateVer), so between state changes the cached plan —
// including its already-built frame — is returned as is.
func (ln *lane) planRingSend() sendPlan {
	if ln.cachedOK && ln.cachedVer == ln.stateVer {
		return ln.cachedPlan
	}
	var plan sendPlan
	switch {
	case ln.srv.cfg.DisableFairness:
		plan = ln.planFIFO()
	case ln.srv.trainLen > 1:
		plan = ln.planTrain(ln.srv.trainLen)
	default:
		plan = ln.planClassic()
	}
	ln.cachedPlan = plan
	ln.cachedVer = ln.stateVer
	ln.cachedOK = true
	return plan
}

// planClassic is the TrainLength 1 framing: one fairness-selected
// primary plus at most one opposite-phase piggyback.
func (ln *lane) planClassic() sendPlan {
	// Paper lines 54-58: with an empty forward queue the only possible
	// action is initiating a local write.
	if ln.fq.empty() {
		if len(ln.writeQueue) == 0 {
			return sendPlan{}
		}
		return ln.finishPlan(ln.planInitiate())
	}

	// Paper lines 60-66: pick the origin with the smallest nb_msg; the
	// local server competes for an initiation slot only when it has
	// queued client writes.
	self := ln.srv.cfg.ID
	includeSelf := len(ln.writeQueue) > 0
	origin, ok := ln.fq.selectOrigin(self, includeSelf, 0)
	if !ok {
		return sendPlan{}
	}
	if origin == self && !ln.fq.hasAny(self) {
		return ln.finishPlan(ln.planInitiate())
	}
	env, _ := ln.fq.peekFirst(origin, 0)
	return ln.finishPlan(planItem{origin: origin, kind: env.Kind, env: env})
}

// planTrain drains up to k envelopes into one frame by repeated
// application of the nb_msg fairness rule: every slot is awarded to the
// least-served origin as if the previous slots had already been charged,
// so per-origin fairness (paper lines 60-66) holds per envelope, not per
// frame. Initiations of queued local writes interleave with forwards
// under the same rule, and slots the queue cannot fill fall to local
// initiations — the train generalization of finishPlan's empty-slot
// trick.
func (ln *lane) planTrain(k int) sendPlan {
	self := ln.srv.cfg.ID
	cur := ln.cursor
	cur.reset(ln.fq)
	if len(ln.planTags) > 0 {
		clear(ln.planTags)
	}
	items := ln.planScratch[:0]
	inits := 0
	tailBytes := 0
	for len(items) < k {
		includeSelf := inits < len(ln.writeQueue)
		origin, ok := cur.selectOrigin(self, includeSelf)
		if !ok {
			break
		}
		var it planItem
		if origin == self && !cur.hasAny(self) {
			it = ln.planInitiateAt(inits)
		} else {
			env, ok := cur.next(origin)
			if !ok {
				break // unreachable: selectOrigin only offers origins with envelopes
			}
			it = planItem{origin: origin, kind: env.Kind, env: env}
		}
		// The wire format bounds the total value bytes of a train's
		// tail (everything beyond the classic pair); close the train
		// early rather than plan an unencodable frame.
		if len(items) >= 2 {
			if tailBytes += len(it.env.Value); tailBytes > wire.MaxTrainValueBytes {
				break
			}
		}
		if it.initiate {
			inits++
			cur.charge(self)
		} else {
			cur.charge(it.origin)
		}
		items = append(items, it)
	}
	ln.planScratch = items
	if len(items) == 0 {
		return sendPlan{}
	}
	plan := sendPlan{ok: true, items: items, frame: wire.NewLaneFrame(items[0].env, uint8(ln.idx))}
	if len(items) > 1 {
		// The frame escapes to the transport (encoding happens later on
		// the link's writer), so its envelope storage must be owned, not
		// lane scratch: one allocation per train, amortized over its
		// envelopes.
		rest := make([]wire.Envelope, len(items)-1)
		for i, it := range items[1:] {
			rest[i] = it.env
		}
		plan.frame.Piggyback = &rest[0]
		plan.frame.Extra = rest[1:]
	}
	return plan
}

// planFIFO is the DisableFairness ablation: forward first (plain FIFO),
// initiate local writes only when nothing waits to be forwarded. Under
// saturation the forward queue never empties and local writers starve —
// the failure mode the paper's fairness rule exists to prevent.
func (ln *lane) planFIFO() sendPlan {
	if env, ok := ln.fq.fifoPeek(); ok {
		return ln.finishPlan(planItem{fifo: true, origin: env.Origin, kind: env.Kind, env: env})
	}
	if len(ln.writeQueue) > 0 {
		return ln.finishPlan(ln.planInitiate())
	}
	return sendPlan{}
}

// highestObserved returns max(stored tag, highest pending tag) for an
// object from its published snapshot, without creating the object: the
// lane is the only goroutine that changes an object's tag and pending
// set, and every handler that changes them republishes the snapshot
// before it returns, so the snapshot this lane last published is exact
// — not merely a lower bound. A missing object or nil snapshot means
// the object has never been written or pre-written here and the zero
// tag is correct.
func (ln *lane) highestObserved(obj wire.ObjectID) tag.Tag {
	if o := ln.lookup(obj); o != nil {
		if sn := o.snap.Load(); sn != nil {
			return sn.tag.Max(sn.barrier)
		}
	}
	return tag.Tag{}
}

// planInitiate builds the pre_write that would start writeQueue[0],
// tagging it above everything this server has seen (paper lines 22-23).
func (ln *lane) planInitiate() planItem {
	s := ln.srv
	w := ln.writeQueue[0]
	t := ln.highestObserved(w.object).Next(uint32(s.cfg.ID))
	return planItem{
		initiate: true,
		origin:   s.cfg.ID,
		kind:     wire.KindPreWrite,
		env: wire.Envelope{
			Kind:   wire.KindPreWrite,
			Object: w.object,
			Tag:    t,
			Origin: s.cfg.ID,
			Value:  w.value,
		},
	}
}

// planInitiateAt builds the pre_write for writeQueue[i] inside a train
// plan. Object state is only updated at commit, so when one train
// initiates several writes of the same object, each tag must also
// dominate the tags planned earlier in this train — ln.planTags tracks
// them (cleared at the start of every train plan).
func (ln *lane) planInitiateAt(i int) planItem {
	s := ln.srv
	w := ln.writeQueue[i]
	highest := ln.highestObserved(w.object)
	if prev, ok := ln.planTags[w.object]; ok {
		highest = highest.Max(prev)
	}
	t := highest.Next(uint32(s.cfg.ID))
	ln.planTags[w.object] = t
	return planItem{
		initiate: true,
		origin:   s.cfg.ID,
		kind:     wire.KindPreWrite,
		env: wire.Envelope{
			Kind:   wire.KindPreWrite,
			Object: w.object,
			Tag:    t,
			Origin: s.cfg.ID,
			Value:  w.value,
		},
	}
}

// finishPlan wraps the primary item in a lane-tagged frame and, when
// piggybacking is enabled, attaches the fairest queued envelope of the
// opposite phase. Both envelopes necessarily belong to this lane, so
// one lane byte describes the whole frame.
func (ln *lane) finishPlan(prim planItem) sendPlan {
	items := append(ln.planScratch[:0], prim)
	ln.planScratch = items
	plan := sendPlan{ok: true, items: items, frame: wire.NewLaneFrame(prim.env, uint8(ln.idx))}
	if ln.srv.cfg.DisablePiggyback || prim.fifo {
		return plan
	}
	opposite := wire.KindWrite
	if prim.env.Kind == wire.KindWrite {
		opposite = wire.KindPreWrite
	}
	attach := func(sec planItem) sendPlan {
		items = append(items, sec)
		ln.planScratch = items
		plan.items = items
		pb := sec.env
		plan.frame.Piggyback = &pb
		return plan
	}
	origin, ok := ln.fq.selectOrigin(ln.srv.cfg.ID, false, opposite)
	if !ok {
		// An empty pre-write slot can be filled by initiating a queued
		// local write; without this a saturated lane alternates
		// pre-write and write rounds and write throughput halves.
		if opposite == wire.KindPreWrite && !prim.initiate && len(ln.writeQueue) > 0 {
			return attach(ln.planInitiate())
		}
		return plan
	}
	env, ok := ln.fq.peekFirst(origin, opposite)
	if !ok {
		return plan
	}
	// Never pair the primary with itself (possible when the primary was
	// selected from the same origin and kind).
	if !prim.initiate && prim.origin == origin && prim.env.Kind == env.Kind {
		return plan
	}
	return attach(planItem{origin: origin, kind: env.Kind, env: env})
}

// commitRingSend applies the bookkeeping for a frame that was just handed
// to the ring sender, one envelope at a time in frame order. State cannot
// have changed since planning: the lane plans and commits within one
// select iteration.
//
// Object-state budget (DESIGN.md §10): forwarded envelopes touch no
// object state at commit (pre-writes joined the pending set at receive
// time), and the initiations' pending entries are recorded grouped by
// object — one snapshot publication per distinct initiated object per
// train.
func (ln *lane) commitRingSend(plan sendPlan) {
	ln.noteStateChange()
	ln.srv.ringFrames.Add(1)
	ln.srv.ringEnvs.Add(uint64(len(plan.items)))
	for _, it := range plan.items {
		ln.commitItem(it)
	}
	ln.flushInitAdds()
	// Paper line 55: the nb_msg table resets whenever the forward queue
	// is observed empty.
	if ln.fq.empty() {
		ln.fq.resetCounts()
	}
	if ln.gatec != nil {
		// Hand the sender the frame's durability watermark: the highest
		// WAL sequence this lane has staged covers every record implied
		// by the frame's envelopes (initiations staged above, forwards
		// staged at receive time). Never blocks: gatec has capacity 1
		// and the unbuffered ringOut handoff strictly alternates one
		// commit per sender receive.
		ln.gatec <- ln.walSeq
	}
}

// initAdd is one initiation's deferred pending-set insertion, batched by
// commitRingSend so one train's initiations of the same object share a
// single snapshot publication.
type initAdd struct {
	object wire.ObjectID
	tag    tag.Tag
	value  []byte
	pooled bool
	done   bool
}

// commitItem performs the state transitions of sending one envelope.
func (ln *lane) commitItem(it planItem) {
	s := ln.srv
	if it.initiate {
		w := ln.writeQueue[0]
		ln.writeQueue = ln.writeQueue[1:]
		// Paper line 24: the originator records its own pre-write. The
		// insertion is deferred to flushInitAdds (grouped per object);
		// the pending entry inherits ownership of a pooled client copy
		// and is retired when the completed write prunes it.
		ln.initAdds = append(ln.initAdds, initAdd{
			object: it.env.Object,
			tag:    it.env.Tag,
			value:  it.env.Value,
			pooled: w.pooled,
		})
		ln.myWrites[writeKey{object: it.env.Object, tag: it.env.Tag}] = ownWrite{
			client: w.client,
			reqID:  w.reqID,
			object: w.object,
			phase:  phasePreWrite,
		}
		// The initiation record carries the client's value; synced (in
		// train mode) before the pre-write leaves, so a restart can
		// re-circulate it instead of leaving ghost barriers at peers
		// that logged the pre-write this frame is about to create.
		ln.walStage(&wal.Record{
			Type:   wal.RecInit,
			Object: it.env.Object,
			Tag:    it.env.Tag,
			Origin: s.cfg.ID,
			Client: w.client,
			ReqID:  w.reqID,
			Flags:  wal.FlagHasValue,
			Value:  it.env.Value,
		})
		ln.fq.charge(s.cfg.ID) // paper line 26
		return
	}
	var ok bool
	if it.fifo {
		_, ok = ln.fq.fifoPop()
	} else {
		_, ok = ln.fq.popFirst(it.origin, it.kind)
	}
	if !ok {
		// Unreachable by construction; dropping the plan is safe (the
		// frame already sent is a duplicate at worst).
		ln.log.Warn("planned envelope vanished", "origin", it.origin, "kind", it.kind)
		return
	}
	if !it.fifo {
		ln.fq.charge(it.origin) // paper line 72
	}
	// Forwarded pre-writes joined the pending set at receive time
	// (paper line 71, moved to onPreWrite); nothing left to record here.
}

// flushInitAdds records the train's initiations in their objects'
// pending sets, one snapshot publication per distinct object. The
// scratch slice is lane-owned and reused across trains; vacated slots
// are zeroed so committed values do not linger through the backing
// array. The nested scan is quadratic in the train's initiation count,
// which the frame envelope cap keeps tiny.
func (ln *lane) flushInitAdds() {
	adds := ln.initAdds
	if len(adds) == 0 {
		return
	}
	for i := range adds {
		if adds[i].done {
			continue
		}
		o := ln.obj(adds[i].object)
		for j := i; j < len(adds); j++ {
			if adds[j].done || adds[j].object != adds[i].object {
				continue
			}
			o.addPending(adds[j].tag, adds[j].value, adds[j].pooled)
			adds[j].done = true
		}
		o.publish()
	}
	for i := range adds {
		adds[i] = initAdd{}
	}
	ln.initAdds = adds[:0]
}
