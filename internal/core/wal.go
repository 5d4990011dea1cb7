package core

import (
	"fmt"

	"repro/internal/wal"
	"repro/internal/wire"
)

// This file is the ring server's side of the write-ahead log
// (DESIGN.md §13). The wal package owns framing, group commit, and
// recovery mechanics; this file decides WHAT is logged and how a
// replayed log folds back into protocol state.
//
// Staging sites mirror the state transitions of the §3 algorithm:
//
//   - RecInit when the queue handler initiates a local write (the
//     pre-write's tag, client, and value);
//   - RecPreWrite when a forwarded pre-write enters the pending set;
//   - RecWrite when a write-phase message applies (value elided when a
//     covering RecInit/RecPreWrite already carries it, mirroring wire
//     elision) — own-returns, forwards, and orphan adoptions alike;
//   - RecAck when the client ack for an own write is issued.
//
// The lane's sender gates every outgoing ring frame on WaitLane for the
// highest sequence the lane has staged, so a frame (and transitively
// the ack its full traversal produces) exists on the wire only after
// the state it implies is on disk. Replay runs inside wal.Open — before
// NewServer returns, hence strictly before Start spins up the lane, the
// control plane, or any ring adoption.

// openWAL opens the configured log, replays it into protocol state,
// compacts it to a snapshot, and queues the retransmissions
// that resume interrupted ring traversals. Called by NewServer after
// lane construction; single-threaded, nothing is running yet.
func (s *Server) openWAL() error {
	wlog, err := wal.Open(s.cfg.WAL, s.replayRecord)
	if err != nil {
		return err
	}
	s.wal = wlog
	if err := s.compactWAL(); err != nil {
		wlog.Close()
		s.wal = nil
		return fmt.Errorf("compact: %w", err)
	}
	s.requeueReplayedState()
	return nil
}

// replayRecord folds one replayed WAL record into the lane's protocol
// state. Records arrive in the order they were staged — a log written
// by a server that still ran several lanes interleaves them, but each
// object's records came from one lane in that lane's order, which is
// all the fold needs. The fold re-runs the handlers' state
// transitions in that order, so it is idempotent over the
// history-plus-partial-snapshot a crash mid-compaction leaves behind:
// addPending refuses duplicates and tags at or below the stored tag,
// apply refuses stale tags, and myWrites upserts.
func (s *Server) replayRecord(r *wal.Record) error {
	ln := s.lane
	switch r.Type {
	case wal.RecInit:
		key := writeKey{object: r.Object, tag: r.Tag}
		phase := phasePreWrite
		if r.Flags&wal.FlagPhaseWrite != 0 {
			phase = phaseWrite
		}
		ln.myWrites[key] = ownWrite{
			client: r.Client,
			reqID:  r.ReqID,
			object: r.Object,
			phase:  phase,
		}
		if r.Flags&wal.FlagHasValue != 0 {
			// Keep the client's value reachable for the startup
			// retransmission even if a newer write prunes the pending
			// entry before this pre-write completes its ring traversal.
			if ln.replayVals == nil {
				ln.replayVals = make(map[writeKey][]byte)
			}
			ln.replayVals[key] = r.Value
			ln.obj(r.Object).addPending(r.Tag, r.Value)
		}
	case wal.RecPreWrite:
		ln.obj(r.Object).addPending(r.Tag, r.Value)
	case wal.RecWrite:
		o := ln.obj(r.Object)
		v, haveV := r.Value, r.Flags&wal.FlagHasValue != 0
		if !haveV {
			// Elided, like the wire message it logged: the value lives in
			// the pending set from the covering RecInit/RecPreWrite. An
			// absent entry means the tag was stale when logged (nothing
			// was applied); the prune below is all that remains.
			v, haveV = o.pending.get(r.Tag)
		}
		if haveV {
			o.apply(r.Tag, v)
		}
		o.prune(r.Tag)
		if r.Origin == s.cfg.ID {
			key := writeKey{object: r.Object, tag: r.Tag}
			if w, ok := ln.myWrites[key]; ok && w.phase == phasePreWrite {
				w.phase = phaseWrite
				ln.myWrites[key] = w
				delete(ln.replayVals, key)
			}
		}
	case wal.RecAck:
		key := writeKey{object: r.Object, tag: r.Tag}
		delete(ln.myWrites, key)
		delete(ln.replayVals, key)
	}
	return nil
}

// compactWAL rewrites the log as a snapshot of the live state the
// replay produced: every object's stored value and pending pre-writes,
// then the in-flight own writes, so each object's own writes follow its
// stored state as they would in history. History the snapshot
// supersedes is deleted, bounding restart replay work by live state
// instead of log age.
func (s *Server) compactWAL() error {
	return s.wal.Compact(func(add func(*wal.Record)) {
		ln := s.lane
		ln.rangeObjects(func(objID wire.ObjectID, o *objectState) {
			if !o.tag.IsZero() {
				add(&wal.Record{
					Type:   wal.RecWrite,
					Object: objID,
					Tag:    o.tag,
					Origin: wire.ProcessID(o.tag.ID),
					Flags:  wal.FlagHasValue,
					Value:  o.value,
				})
			}
			for i := range o.pending.entries {
				e := &o.pending.entries[i]
				add(&wal.Record{
					Type:   wal.RecPreWrite,
					Object: objID,
					Tag:    e.tag,
					Origin: wire.ProcessID(e.tag.ID),
					Flags:  wal.FlagHasValue,
					Value:  e.value,
				})
			}
		})
		for key, w := range ln.myWrites {
			rec := wal.Record{
				Type:   wal.RecInit,
				Object: key.object,
				Tag:    key.tag,
				Origin: s.cfg.ID,
				Client: w.client,
				ReqID:  w.reqID,
			}
			if w.phase == phaseWrite {
				rec.Flags = wal.FlagPhaseWrite
			} else if v, ok := ln.replayVals[key]; ok {
				rec.Flags = wal.FlagHasValue
				rec.Value = v
			}
			add(&rec)
		}
	})
}

// requeueReplayedState resumes the ring traversals the crash
// interrupted. The lane runs retransmitAfterSuccessorCrash: its stored
// values re-circulate as writes and its pending pre-writes as
// pre-writes (each with its original origin, so it terminates at its
// originator or adopter). Then this server's own in-flight writes
// restart their current phase. Prefix pruning at the receivers absorbs
// whatever is stale; completed traversals re-ack, and a duplicate ack
// to a client that already moved on is harmless (and, after a full-
// cluster restart, expected — restart tests must not assert
// AckSendFailures == 0).
func (s *Server) requeueReplayedState() {
	ln := s.lane
	// Publish what replay rebuilt, so reads after a restart are
	// served from snapshots from the first one on.
	ln.rangeObjects(func(_ wire.ObjectID, o *objectState) { o.publish() })
	ln.retransmitAfterSuccessorCrash()
	for key, w := range ln.myWrites {
		switch w.phase {
		case phasePreWrite:
			// Restart the pre-write phase with the logged value. A
			// write that already installed a newer tag may have
			// pruned the pending entry; the RecInit side copy in
			// replayVals still holds the client's bytes.
			v, ok := ln.replayVals[key]
			if !ok {
				v, _ = ln.obj(key.object).pending.get(key.tag)
			}
			ln.fq.push(wire.Envelope{
				Kind:   wire.KindPreWrite,
				Object: key.object,
				Tag:    key.tag,
				Origin: s.cfg.ID,
				Value:  v,
			})
		case phaseWrite:
			if o := ln.obj(key.object); o.tag == key.tag {
				continue // the stored-value requeue above re-circulates it
			}
			// Elided, like the live write phase: any server whose
			// stored tag is still below this one holds the value in
			// its pending set (the pre-write completed the full ring
			// and only a write at or above this tag could have pruned
			// it); everyone else absorbs the tag-only message.
			ln.fq.push(wire.Envelope{
				Kind:   wire.KindWrite,
				Object: key.object,
				Tag:    key.tag,
				Origin: s.cfg.ID,
				Flags:  wire.FlagValueElided,
			})
		}
	}
	ln.replayVals = nil
}

// walStage stages one record in the WAL's buffer, tracking the highest
// staged sequence for the sender gate. Called only from
// the lane's event-loop goroutine (handlers and nextFrame), so
// walSeq needs no synchronization. No-op without a WAL.
func (ln *lane) walStage(r *wal.Record) {
	if w := ln.srv.wal; w != nil {
		ln.walSeq = w.Append(0, r)
	}
}

// WALStats snapshots the write-ahead log's counters; zero when the
// server runs without a WAL.
func (s *Server) WALStats() wal.Stats {
	if s.wal == nil {
		return wal.Stats{}
	}
	return s.wal.Stats()
}

// WALTornTails returns how many torn or corrupt segment tails recovery
// truncated at startup. Non-zero after a kill is expected (the tail
// past the last sync is exactly what a crash loses); non-zero after a
// graceful Stop means a sync was skipped on the shutdown path and
// should fail the happy-path tests that assert it.
func (s *Server) WALTornTails() uint64 {
	if s.wal == nil {
		return 0
	}
	return s.wal.Stats().TornTails
}
