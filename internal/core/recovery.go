package core

import (
	"repro/internal/wal"
	"repro/internal/wire"
)

// handleCrash applies one crash event fanned out by the control plane to
// this lane: update the lane's view replica, splice the ring if the
// crashed server was the successor, and adopt the messages the crashed
// server originated on this lane. Duplicate events are no-ops. The §3.4
// recovery argument is re-proven per lane because an object's entire
// message history lives on one lane: a server dying mid-write on some
// lanes but not others just means each lane runs the seed's single-ring
// recovery for its own objects, at its own pace.
func (ln *lane) handleCrash(crashed wire.ProcessID) {
	s := ln.srv
	if crashed == s.cfg.ID || !ln.view.Contains(crashed) || !ln.view.Alive(crashed) {
		return
	}
	oldSucc := ln.view.Successor(s.cfg.ID)
	ln.view.MarkCrashed(crashed)

	if ln.view.AliveCount() == 0 {
		return // cannot happen while we are alive, but stay defensive
	}

	// Paper lines 85-92: the crashed server's ring predecessor splices
	// the ring and retransmits what the crashed server may have
	// swallowed.
	if crashed == oldSucc {
		ln.retransmitAfterSuccessorCrash()
	}

	// Messages originated by a crashed server would circulate forever;
	// the alive predecessor of the crashed position adopts them
	// (DESIGN.md §3.4). Entries already sitting in the forward queue
	// are converted here; later arrivals are handled at receipt.
	ln.adoptOrphans()
}

// requeue pushes a recovery- or adoption-created envelope onto the
// lane's forward queue. Every such envelope's value has (or is about to
// gain) a second reference — the installed value, a pending entry, or
// an in-flight duplicate — so it must never claim pool ownership: the
// callers strike the object-side marks (clearPooled, valuePooled) and
// this helper is the single place that enforces the envelope side,
// counting any violation in Server.RecoveryBufferLeaks. The counter
// reading 0 is the invariant; a non-zero reading means a re-queued
// envelope arrived still claiming a pooled buffer (a double-recycle
// waiting to happen) and was defused here.
func (ln *lane) requeue(env wire.Envelope) {
	if env.ValuePooled() {
		ln.srv.recoveryLeaks.Add(1)
		env.Flags &^= wire.FlagPooledValue
	}
	ln.fq.push(env)
}

// retransmitAfterSuccessorCrash implements the paper's recovery rule for
// this lane's objects: send the current value as a write message and
// re-send every pending pre-write to the new successor. Each
// retransmitted message carries its original origin, so it continues its
// interrupted journey around the ring and terminates at its originator
// (or at the originator's adopter), exactly like a first transmission.
// Combined with prefix pruning of the pending set, this guarantees every
// server either receives each lost write or a newer one (see the
// coverage argument in DESIGN.md §3.3-3.4). Every re-queued value gains
// a second reference, so its buffer is struck from the pool-ownership
// books (leaked to the GC) before the requeue.
func (ln *lane) retransmitAfterSuccessorCrash() {
	ln.rangeObjects(func(objID wire.ObjectID, o *objectState) {
		if !o.tag.IsZero() {
			o.valuePooled = false
			ln.requeue(wire.Envelope{
				Kind:   wire.KindWrite,
				Object: objID,
				Tag:    o.tag,
				Origin: wire.ProcessID(o.tag.ID),
				Value:  o.value,
			})
		}
		for i := range o.pending.entries {
			e := &o.pending.entries[i]
			e.pooled = false
			ln.requeue(wire.Envelope{
				Kind:   wire.KindPreWrite,
				Object: objID,
				Tag:    e.tag,
				Origin: wire.ProcessID(e.tag.ID),
				Value:  e.value,
			})
		}
		o.publish()
	})
}

// adoptOrphans scans the lane's forward queue for messages originated by
// crashed servers this server is now responsible for: orphaned
// pre-writes are turned around into their write phase, orphaned writes
// are absorbed (they were already applied at receipt).
func (ln *lane) adoptOrphans() {
	s := ln.srv
	for _, origin := range ln.deadQueuedOrigins() {
		if !ln.isOrphanAdopter(origin) {
			continue
		}
		for _, env := range ln.fq.takeOrigin(origin) {
			if env.Kind != wire.KindPreWrite {
				continue // writes were applied on receipt; just absorb
			}
			o := ln.obj(env.Object)
			// The turned-around write re-ships the value, aliasing it:
			// neither the installed copy nor any pending entry for the
			// tag may recycle its buffer — and unlike a write received
			// after a full ring traversal, this one proves nothing
			// about our own forwards being encoded, so the entry's
			// pool-ownership mark is cleared before pruning.
			o.clearPooled(env.Tag)
			s.applyAndRelease(env.Object, o, env.Tag, env.Value, false)
			o.prune(env.Tag)
			o.dropPending(env.Tag)
			o.publish()
			// Same rule as the receive-time adoption in onPreWrite: the
			// turned-around write is logged with its value, because the
			// crashed originator's RecInit no longer exists anywhere.
			ln.walStage(&wal.Record{
				Type:   wal.RecWrite,
				Object: env.Object,
				Tag:    env.Tag,
				Origin: env.Origin,
				Flags:  wal.FlagHasValue,
				Value:  env.Value,
			})
			ln.requeue(wire.Envelope{
				Kind:   wire.KindWrite,
				Object: env.Object,
				Tag:    env.Tag,
				Origin: env.Origin,
				Value:  env.Value,
			})
		}
	}
}

// deadQueuedOrigins returns the crashed ring members that still have
// messages in the lane's forward queue.
func (ln *lane) deadQueuedOrigins() []wire.ProcessID {
	var dead []wire.ProcessID
	for _, origin := range ln.fq.order {
		if !ln.fq.hasAny(origin) {
			continue
		}
		if ln.view.Contains(origin) && !ln.view.Alive(origin) {
			dead = append(dead, origin)
		}
	}
	return dead
}
