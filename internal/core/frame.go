package core

import (
	"slices"

	"repro/internal/wal"
	"repro/internal/wire"
)

// nextFrame is the queue handler (paper lines 53-75), run when the
// lane's send slot is free: it selects, pops and charges the frame's
// envelopes in place, initiates local writes, and returns the frame
// addressed to the successor with the WAL sequence the sender must wait
// for. The paper's "primary plus optional piggyback" generalizes to a
// train of up to TrainLength envelopes (DESIGN.md §9). The caller
// guarantees hasWork, so the frame carries at least one envelope, and
// every envelope belongs to this lane, so one lane byte describes it.
//
// Object-state budget (DESIGN.md §10): forwards touch no object state
// here (pre-writes joined the pending set at receive time), and each
// object the frame initiated on is published once, after the frame is
// built.
func (ln *lane) nextFrame() outFrame {
	s := ln.srv
	envs := ln.envs[:0]
	switch {
	case s.cfg.DisableFairness:
		envs = ln.fifoFrame(envs)
	case s.trainLen > 1:
		envs = ln.trainFrame(envs, s.trainLen)
	default:
		envs = ln.classicFrame(envs)
	}
	s.ringFrames.Add(1)
	s.ringEnvs.Add(uint64(len(envs)))
	// Paper line 55: the nb_msg table resets whenever the forward queue
	// is observed empty.
	if ln.fq.empty() {
		ln.fq.resetCounts()
	}
	for i, o := range ln.initiated {
		if !slices.Contains(ln.initiated[:i], o) {
			o.publish()
		}
	}
	clear(ln.initiated)
	ln.initiated = ln.initiated[:0]

	f := wire.NewLaneFrame(envs[0], uint8(ln.idx))
	if len(envs) > 1 {
		// The frame escapes to the transport (encoding happens later on
		// the link's writer), so its envelope storage must be owned, not
		// lane scratch: one allocation per train.
		rest := slices.Clone(envs[1:])
		f.Piggyback = &rest[0]
		f.Extra = rest[1:]
	}
	clear(envs)
	ln.envs = envs[:0]
	// The highest WAL sequence this lane has staged covers every record
	// the frame implies: its initiations staged above, its forwards at
	// receive time.
	return outFrame{to: ln.view.Successor(s.cfg.ID), f: f, seq: ln.walSeq}
}

// hasWork reports whether the queue handler has anything to send.
func (ln *lane) hasWork() bool {
	return !ln.fq.empty() || len(ln.writeQueue) > 0
}

// fairNext applies the fairness rule once (paper lines 60-66): it picks
// the least-served origin with a queued envelope, where the local server
// competes for an initiation slot only when it has queued client writes.
// initiate reports that the slot goes to writeQueue[0].
func (ln *lane) fairNext() (origin wire.ProcessID, initiate, ok bool) {
	self := ln.srv.cfg.ID
	origin, ok = ln.fq.selectOrigin(self, len(ln.writeQueue) > 0, 0)
	return origin, ok && origin == self && !ln.fq.hasAny(self), ok
}

// classicFrame is the TrainLength 1 framing: one fairness-selected
// primary plus at most one opposite-phase piggyback. The piggyback is
// selected against the counts from before the frame, so the primary is
// charged last.
func (ln *lane) classicFrame(envs []wire.Envelope) []wire.Envelope {
	origin, initiate, _ := ln.fairNext()
	var prim wire.Envelope
	if initiate {
		prim = ln.initiate()
	} else {
		prim, _ = ln.fq.popFirst(origin, 0)
	}
	envs = append(envs, prim)
	if !ln.srv.cfg.DisablePiggyback {
		opposite := wire.KindWrite
		if prim.Kind == wire.KindWrite {
			opposite = wire.KindPreWrite
		}
		if o, ok := ln.fq.selectOrigin(ln.srv.cfg.ID, false, opposite); ok {
			env, _ := ln.fq.popFirst(o, opposite)
			ln.fq.charge(o)
			envs = append(envs, env)
		} else if opposite == wire.KindPreWrite && !initiate && len(ln.writeQueue) > 0 {
			// An empty pre-write slot can be filled by initiating a
			// queued local write; without this a saturated lane
			// alternates pre-write and write rounds and write
			// throughput halves.
			envs = append(envs, ln.initiate())
			ln.fq.charge(ln.srv.cfg.ID)
		}
	}
	ln.fq.charge(origin) // paper lines 26 and 72
	return envs
}

// trainFrame drains up to k envelopes into one frame by repeated
// application of the fairness rule, each slot charged before the next is
// selected, so per-origin fairness holds per envelope, not per frame.
// Initiations interleave with forwards under the same rule, and slots
// the queue cannot fill fall to local initiations.
func (ln *lane) trainFrame(envs []wire.Envelope, k int) []wire.Envelope {
	tail := 0
	for len(envs) < k {
		origin, initiate, ok := ln.fairNext()
		if !ok {
			break
		}
		// The wire format bounds the total value bytes of a train's tail
		// (everything beyond the classic pair); close the train early
		// rather than build an unencodable frame.
		if len(envs) >= 2 {
			var next []byte
			if initiate {
				next = ln.writeQueue[0].value
			} else {
				env, _ := ln.fq.peekFirst(origin, 0)
				next = env.Value
			}
			if tail += len(next); tail > wire.MaxTrainValueBytes {
				break
			}
		}
		if initiate {
			envs = append(envs, ln.initiate())
		} else {
			env, _ := ln.fq.popFirst(origin, 0)
			envs = append(envs, env)
		}
		ln.fq.charge(origin)
	}
	return envs
}

// fifoFrame is the DisableFairness ablation: forward first (plain FIFO,
// uncharged), initiate local writes only when nothing waits to be
// forwarded. Under saturation the forward queue never empties and local
// writers starve — the failure mode the paper's fairness rule exists to
// prevent.
func (ln *lane) fifoFrame(envs []wire.Envelope) []wire.Envelope {
	if env, ok := ln.fq.fifoPop(); ok {
		return append(envs, env)
	}
	ln.fq.charge(ln.srv.cfg.ID)
	return append(envs, ln.initiate())
}

// initiate starts writeQueue[0] (paper lines 21-26): it tags the write
// above everything this lane has seen of the object, so several
// initiations of one object in one train get increasing tags, records
// the pre-write in the pending set, and returns it. The pending entry
// inherits ownership of a pooled client copy and is retired when the
// completed write prunes it. nextFrame publishes the object's snapshot
// once the frame is built; the caller charges the local server.
func (ln *lane) initiate() wire.Envelope {
	s := ln.srv
	w := ln.writeQueue[0]
	ln.writeQueue = ln.writeQueue[1:]
	o := ln.obj(w.object)
	t := o.tag.Max(o.maxPending()).Next(uint32(s.cfg.ID))
	o.addPending(t, w.value, w.pooled)
	ln.initiated = append(ln.initiated, o)
	ln.myWrites[writeKey{object: w.object, tag: t}] = ownWrite{
		client: w.client,
		reqID:  w.reqID,
		object: w.object,
		phase:  phasePreWrite,
	}
	// The initiation record carries the client's value; synced before
	// the pre-write leaves, so a restart can re-circulate it instead of
	// leaving ghost barriers at peers that logged the pre-write this
	// frame is about to create.
	ln.walStage(&wal.Record{
		Type:   wal.RecInit,
		Object: w.object,
		Tag:    t,
		Origin: s.cfg.ID,
		Client: w.client,
		ReqID:  w.reqID,
		Flags:  wal.FlagHasValue,
		Value:  w.value,
	})
	return wire.Envelope{
		Kind:   wire.KindPreWrite,
		Object: w.object,
		Tag:    t,
		Origin: s.cfg.ID,
		Value:  w.value,
	}
}
