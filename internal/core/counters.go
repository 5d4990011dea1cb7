package core

// CounterSnapshot is one sampling of every robustness counter the server
// keeps, and the only way to read them: tests, the scenario harness and
// the benchmark assert this one struct, so a new invariant counter added
// here is automatically carried into every whole-server assertion.
//
// The fields are read with independent atomic loads, not one global
// pause, so a snapshot taken while traffic flows is a near-instant — not
// instantaneous — cut. Invariant checks take snapshots on quiescent
// servers, where the distinction vanishes.
type CounterSnapshot struct {
	// LaneDrops counts inbound ring frames dropped for naming a lane
	// outside this server's fanout (a WriteLanes mismatch on a link no
	// handshake validated — raw endpoints). Healthy clusters read 0.
	LaneDrops uint64
	// AckSendFailures counts client acks whose transport send failed and
	// was dropped. Happy-path clusters read 0; full-membership restarts
	// may legitimately re-ack clients that already moved on.
	AckSendFailures uint64
	// RecoveryBufferLeaks counts crash-recovery re-queued envelopes that
	// still claimed pool ownership at the requeue choke point. The choke
	// point strips the claim (no buffer is recycled under a live alias),
	// but non-zero means a recovery path failed to strike the buffer from
	// the pool-ownership books first. Always 0 on a correct server,
	// faulted or not.
	RecoveryBufferLeaks uint64
	// WALTornTails counts torn or corrupt WAL segment tails truncated at
	// startup. 0 without a WAL; non-zero is expected after a kill and
	// forbidden after a graceful stop.
	WALTornTails uint64
	// AckFastPath, AckQueued, and AckLanes: acks delivered via the
	// non-blocking transport fast path, acks that went through a
	// per-client lane queue, and client lanes ever created.
	AckFastPath uint64
	AckQueued   uint64
	AckLanes    uint64
	// RingFrames and RingEnvelopes: outbound ring frames the lanes built
	// (each built only when its lane's sender was free, and sent once
	// its WAL sync covers it) and the envelopes they carried.
	// RingEnvelopes/RingFrames is the achieved train length — 1.0 means
	// framing never amortized anything, TrainLength is the ceiling.
	RingFrames    uint64
	RingEnvelopes uint64
}

// AckFastPathShare returns the fraction of acks that left via the
// non-blocking transport fast path, or 0 when no acks were sent.
func (c CounterSnapshot) AckFastPathShare() float64 {
	total := c.AckFastPath + c.AckQueued
	if total == 0 {
		return 0
	}
	return float64(c.AckFastPath) / float64(total)
}

// CounterSnapshot samples every robustness counter at once.
func (s *Server) CounterSnapshot() CounterSnapshot {
	snap := CounterSnapshot{
		LaneDrops:           s.laneDrops.Load(),
		AckSendFailures:     s.ackFails.Load(),
		RecoveryBufferLeaks: s.recoveryLeaks.Load(),
		WALTornTails:        s.WALTornTails(),
		RingFrames:          s.ringFrames.Load(),
		RingEnvelopes:       s.ringEnvs.Load(),
	}
	snap.AckFastPath, snap.AckQueued, snap.AckLanes = s.acks.Stats()
	return snap
}
