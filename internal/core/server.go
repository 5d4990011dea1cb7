package core

import (
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"

	"repro/internal/ackq"
	"repro/internal/placement"
	"repro/internal/ring"
	"repro/internal/tag"
	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Server errors.
var (
	errNoMembers = errors.New("core: empty ring membership")
	errNotMember = errors.New("core: server id not in membership")
)

// writeIntent is a client write waiting in the write_queue for the
// fairness rule to let the server initiate it.
type writeIntent struct {
	client wire.ProcessID
	reqID  uint64
	object wire.ObjectID
	value  []byte
	// pooled records that value is a pool-owned buffer (a TCP inbound
	// copy); it is retired when the write's pending entry is pruned.
	pooled bool
}

// writePhase tracks the progress of a write this server originated.
type writePhase uint8

const (
	// phasePreWrite: the pre_write message is circling the ring.
	phasePreWrite writePhase = iota + 1
	// phaseWrite: the write message is circling the ring.
	phaseWrite
)

// ownWrite is the bookkeeping for a write this server originated: which
// client to acknowledge once the write message completes the ring.
type ownWrite struct {
	client wire.ProcessID
	reqID  uint64
	object wire.ObjectID
	phase  writePhase
}

// writeKey identifies an in-flight own write.
type writeKey struct {
	object wire.ObjectID
	tag    tag.Tag
}

// outFrame is a ring frame addressed to a concrete process, with the
// lane's WAL sequence the sender must see synced before it sends.
type outFrame struct {
	to  wire.ProcessID
	f   wire.Frame
	seq uint64
}

// Server is one storage server of the ring. Create it with NewServer,
// start its goroutines with Start, and stop them with Stop.
//
// Concurrency contract (DESIGN.md §7): the write path is sharded over
// WriteLanes independent ring lanes — lane hash(ObjectID) mod L — and
// each lane's algorithm state (its slice of the write queue, its forward
// queue and fairness table, its in-flight write bookkeeping, its ring
// view replica) is confined to that lane's event-loop goroutine. The
// transports demultiplex inbound frames straight into the owning lane's
// inbox, so lanes never synchronize on the hot path. Per-object replica
// state lives in the owning lane's object table and only that lane
// touches it; the delivering goroutines serve reads from the published
// snapshot, the one piece of object state other goroutines read. What
// remains shared is the control plane — one goroutine owning the
// authoritative ring view, consuming the failure detector and crash
// gossip and fanning recovery out to every lane — and the ack sender,
// sharded per client (DESIGN.md §11): each destination gets its own
// FIFO ack lane and drain goroutine, and transports whose Send is
// provably non-blocking right now are bypassed entirely, so no lane
// ever blocks on a client and no client ever waits behind another
// client's connection.
type Server struct {
	cfg Config
	ep  transport.Endpoint
	log *slog.Logger

	// view is the authoritative ring view, confined to the control-plane
	// goroutine; each lane holds its own replica, updated by crash
	// fan-out.
	view *ring.View

	// lanes are the independent ring lanes of the write path.
	lanes []*lane

	// ctrlc receives crash-notice frames (demuxed by kind); the
	// control-plane goroutine consumes it alongside ep.Failures().
	ctrlc chan transport.Inbound

	// acks is the sharded per-client ack sender: every client-bound
	// frame from the lanes and the delivering goroutines goes through
	// it (non-blocking enqueue, one FIFO lane per client, transport
	// fast path when Send provably cannot block).
	acks *ackq.Sharded[wire.ProcessID, wire.Frame]

	// ackFails counts client acks whose transport send failed; the
	// client retries against another server, so the ack is dropped, but
	// the drop must be observable (happy-path clusters read 0).
	ackFails atomic.Uint64

	// laneDrops counts inbound ring frames discarded because they named
	// a lane this server does not have — a peer with a mismatched
	// WriteLanes on a link no handshake validated (raw endpoints).
	// Dropping beats silently misrouting them to lane 0.
	laneDrops atomic.Uint64

	// recoveryLeaks counts crash-recovery re-queued envelopes that still
	// claimed pool ownership when they reached lane.requeue — an
	// invariant violation (the single requeue choke point defuses it);
	// healthy servers read 0.
	recoveryLeaks atomic.Uint64

	// trainLen is the resolved Config.TrainLength.
	trainLen int

	// wal is the durable write-ahead log, nil when Config.WAL.Dir is
	// empty. Opened — and replayed, compacted, and its interrupted ring
	// traversals re-queued — inside NewServer, so recovery strictly
	// precedes Start and any ring adoption traffic (DESIGN.md §13).
	wal *wal.Log
	// walFailOnce rate-limits the log line when a disk error fails the
	// WAL mid-run; the ring keeps serving (availability wins), undurable.
	walFailOnce sync.Once

	// ringFrames/ringEnvs count the ring frames nextFrame built and the
	// envelopes they carried: ringEnvs/ringFrames is the achieved train
	// length (the benchmark's core.envelopes_per_frame).
	ringFrames, ringEnvs atomic.Uint64

	stopOnce sync.Once
	stopc    chan struct{}
	wg       sync.WaitGroup
}

// laneInboxCapacity buffers each lane's demuxed inbox and caps how many
// events one loop iteration drains before it waits for the send slot,
// so a burst of arrivals forms one train without starving the send; the
// buffer absorbs scheduling jitter between the delivering goroutines
// and the lane. It is not backpressure: the lane selects on its inbox
// together with the send slot, so it never stops reading, and arrivals
// wait in the unbounded forward queue instead. That is deliberate — a
// cycle of blocking bounded queues around a ring can deadlock.
const laneInboxCapacity = 64

// NewServer builds a server over the given transport endpoint. The
// endpoint's id must equal cfg.ID. If the endpoint supports demultiplexing
// (transport.Demuxer), inbound frames are routed straight to the owning
// lane; otherwise the router goroutine fans the shared inbox out.
func NewServer(cfg Config, ep transport.Endpoint) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if ep.ID() != cfg.ID {
		return nil, fmt.Errorf("core: endpoint id %d != config id %d", ep.ID(), cfg.ID)
	}
	view, err := ring.New(cfg.Members)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	s := &Server{
		cfg:      cfg,
		ep:       ep,
		log:      cfg.logger().With("server", cfg.ID),
		view:     view,
		ctrlc:    make(chan transport.Inbound, 16),
		stopc:    make(chan struct{}),
		trainLen: cfg.trainLength(),
	}
	var try func(wire.ProcessID, wire.Frame) bool
	if ts, ok := ep.(transport.TrySender); ok {
		try = ts.TrySend
	}
	s.acks = ackq.NewSharded(ep.Send, try, func(wire.ProcessID, error) {
		s.ackFails.Add(1)
	})
	nLanes := cfg.writeLanes()
	s.lanes = make([]*lane, nLanes)
	for i := range s.lanes {
		s.lanes[i] = &lane{
			srv:      s,
			idx:      i,
			view:     view.Clone(),
			inbox:    make(chan transport.Inbound, laneInboxCapacity),
			crashc:   make(chan wire.ProcessID, len(cfg.Members)),
			slot:     make(chan struct{}, 1),
			ringOut:  make(chan outFrame, 1),
			fq:       newFairQueue(),
			myWrites: make(map[writeKey]ownWrite),
			log:      s.log.With("lane", i),
		}
		s.lanes[i].slot <- struct{}{}
	}
	if cfg.WAL.Dir != "" {
		// Open replays the log into the lanes and objects built above;
		// the interrupted ring traversals it re-queues sit in the lanes'
		// forward queues until Start — recovery before adoption.
		if err := s.openWAL(); err != nil {
			return nil, fmt.Errorf("core: wal: %w", err)
		}
	}
	if d, ok := ep.(transport.Demuxer); ok {
		inboxes := make([]chan transport.Inbound, 0, nLanes+1)
		for _, ln := range s.lanes {
			inboxes = append(inboxes, ln.inbox)
		}
		inboxes = append(inboxes, s.ctrlc)
		d.SetDemux(s.route, inboxes)
	}
	return s, nil
}

// ID returns the server's process id.
func (s *Server) ID() wire.ProcessID { return s.cfg.ID }

// laneFor returns the lane owning an object. The assignment lives in
// internal/placement (shared with the façade and the bench harnesses)
// so no layer can ever disagree with the server about lane ownership.
func (s *Server) laneFor(obj wire.ObjectID) int {
	return placement.LaneOf(obj, len(s.lanes))
}

// route maps an inbound frame to its inbox index: ring data frames go
// to the lane their link was pinned to at handshake time (the
// negotiated lane map) — only frames from unpinned links (raw
// endpoints) fall back to the lane byte in the frame header — crash
// notices go to the
// control plane (index len(lanes)), and client requests — whose senders
// do not know the lane fanout — are routed by object hash. A ring frame
// naming a lane this server does not have is counted and dropped
// (transport.RouteDrop): it can only come from a peer running a
// different WriteLanes, and misrouting it to an arbitrary lane would
// corrupt that lane's protocol state. All envelopes of a piggybacked or
// train frame share a lane, so routing by the primary is exact.
func (s *Server) route(in *transport.Inbound) int {
	switch in.Frame.Env.Kind {
	case wire.KindPreWrite, wire.KindWrite:
		lane, pinned := in.NegotiatedLane()
		if !pinned {
			lane = int(in.Frame.Lane)
		}
		if lane >= len(s.lanes) {
			if s.laneDrops.Add(1) == 1 {
				s.log.Warn("dropping ring frame for unknown lane (peer WriteLanes mismatch?)",
					"lane", lane, "lanes", len(s.lanes), "from", in.From)
			}
			return transport.RouteDrop
		}
		return lane
	case wire.KindCrash:
		return len(s.lanes)
	case wire.KindReadRequest:
		// Serve readable reads right here, on the delivering goroutine:
		// one snapshot load, one non-blocking ack enqueue, zero channel
		// hops and zero locks — the paper's "a read costs two message
		// delays" realized end to end. Safe at this point for the same
		// reason the lane fast path is safe, plus one observation: a
		// pre-write still sitting unprocessed in an inbox cannot have
		// completed the ring (this server's forward is causally
		// required), so no write for it can exist anywhere and the
		// snapshot's admission verdict is still exact. Reads the
		// snapshot cannot admit go to the owning lane as before.
		if s.serveReadFromSnapshot(in.From, &in.Frame.Env) {
			return transport.RouteDrop
		}
		return s.laneFor(in.Frame.Env.Object)
	default:
		return s.laneFor(in.Frame.Env.Object)
	}
}

// serveReadFromSnapshot answers a client read from the published
// snapshot, reporting whether it was served. Called concurrently from
// delivering goroutines (route) and from the lane fast path; both sides
// only load the snapshot and enqueue on the non-blocking ack sender.
func (s *Server) serveReadFromSnapshot(from wire.ProcessID, env *wire.Envelope) bool {
	sn, ok := s.loadSnapshot(env.Object)
	if !ok {
		return false
	}
	s.enqueueAck(from, wire.NewFrame(wire.Envelope{
		Kind:   wire.KindReadAck,
		Object: env.Object,
		Tag:    sn.tag,
		ReqID:  env.ReqID,
		Value:  sn.value,
	}))
	return true
}

// enqueueAck hands one client-bound frame to the ack sender's
// per-client lane. It never blocks; when the lane is idle and the
// transport's Send provably cannot block, the frame is delivered right
// here via the transport fast path.
func (s *Server) enqueueAck(to wire.ProcessID, f wire.Frame) {
	s.acks.Enqueue(to, f)
}

// inboxAt returns the inbox channel for a route index.
func (s *Server) inboxAt(i int) chan transport.Inbound {
	if i >= 0 && i < len(s.lanes) {
		return s.lanes[i].inbox
	}
	return s.ctrlc
}

// Start launches the lane event loops and ring senders, the control
// plane, and the router. The sharded ack sender needs no launch — its
// per-client drain goroutines are created lazily on first ack.
func (s *Server) Start() {
	if s.wal != nil {
		s.wal.Start()
	}
	s.wg.Add(2)
	go s.controlLoop()
	go s.routerLoop()
	for _, ln := range s.lanes {
		s.wg.Add(2)
		go ln.loop()
		go ln.senderLoop()
	}
}

// Stop terminates the server's goroutines. It does not close the
// transport endpoint; the caller owns it. The ack lanes are stopped
// after the protocol goroutines so their final acks are not silently
// dropped; transport delivering goroutines may still race an enqueue
// past the stop, which the sender drops by design. The WAL is closed
// last with a full flush and sync, so a graceful stop never leans on
// torn-tail repair.
func (s *Server) Stop() { s.stop(false) }

// Kill terminates the server like Stop but drops WAL records staged
// since the last covering sync — the process-crash simulation behind
// the restart tests: what survives on disk is exactly what a real
// crash at this instant would leave.
func (s *Server) Kill() { s.stop(true) }

func (s *Server) stop(abrupt bool) {
	s.stopOnce.Do(func() { close(s.stopc) })
	s.wg.Wait()
	s.acks.Stop()
	if s.wal != nil {
		if abrupt {
			s.wal.Kill()
		} else if err := s.wal.Close(); err != nil {
			s.log.Error("wal close failed", "err", err)
		}
	}
}

// routerLoop drains the endpoint's shared inbox into the demux targets.
// With a demultiplexing transport this only ever sees frames that
// arrived before the demux was installed (plus out-of-range fallbacks);
// for plain endpoints it is the demux.
func (s *Server) routerLoop() {
	defer s.wg.Done()
	for {
		select {
		case in := <-s.ep.Inbox():
			i := s.route(&in)
			if i == transport.RouteDrop {
				in.Frame.Retire()
				continue
			}
			select {
			case s.inboxAt(i) <- in:
			case <-s.stopc:
				return
			}
		case <-s.stopc:
			return
		}
	}
}

// controlLoop is the shared control plane: it owns the authoritative
// ring view, consumes the failure detector and crash gossip, fans
// recovery out to every lane, and gossips crash notices to the ring
// successor. Crash handling never rides the data lanes, so ring
// reconfiguration cannot wait behind data traffic.
func (s *Server) controlLoop() {
	defer s.wg.Done()
	for {
		select {
		case crashed := <-s.ep.Failures():
			s.noteCrash(crashed)
		case in := <-s.ctrlc:
			for _, env := range in.Frame.Envelopes() {
				if err := env.Validate(); err != nil {
					s.log.Debug("dropping invalid control envelope", "err", err)
					continue
				}
				if env.Kind != wire.KindCrash {
					s.log.Debug("dropping unexpected control kind", "kind", env.Kind)
					continue
				}
				s.noteCrash(env.Origin)
			}
		case <-s.stopc:
			return
		}
	}
}

// noteCrash processes one crash report, whether it came from the local
// failure detector or from a gossiped notice. Duplicates die here (the
// view deduplicates), which is also what stops the gossip. Failure
// reports about clients — whose disconnections the TCP transport cannot
// distinguish from crashes — are ignored: only ring members matter.
func (s *Server) noteCrash(crashed wire.ProcessID) {
	if crashed == s.cfg.ID || !s.view.Contains(crashed) || !s.view.Alive(crashed) {
		return
	}
	s.view.MarkCrashed(crashed)
	s.log.Info("ring member crashed", "crashed", crashed, "epoch", s.view.Epoch())

	// Fan the crash out to every lane first: local recovery (ring
	// splice, retransmission, orphan adoption) must not wait on gossip.
	// Lane event loops always offer a receive on crashc, so the sends
	// cannot wedge while the lanes live.
	for _, ln := range s.lanes {
		select {
		case ln.crashc <- crashed:
		case <-s.stopc:
			return
		}
	}

	// Gossip the crash around the ring so non-adjacent servers update
	// their views too; the notice dies at the first server that already
	// knows.
	succ := s.view.Successor(s.cfg.ID)
	if succ == s.cfg.ID || succ == wire.NoProcess {
		return
	}
	env := wire.Envelope{Kind: wire.KindCrash, Origin: crashed, Epoch: s.view.Epoch()}
	if err := s.ep.Send(succ, wire.NewFrame(env)); err != nil {
		s.log.Debug("crash gossip send failed", "to", succ, "err", err)
	}
}

// loadSnapshot returns the object's published read snapshot when it is
// servable from any goroutine: the admission check passed at publish
// time and the value's buffer can no longer be recycled under the ack.
// Everything else (park, pooled value, cold object) reports false and
// falls to the owning lane.
func (s *Server) loadSnapshot(id wire.ObjectID) (*readSnapshot, bool) {
	o := s.lanes[s.laneFor(id)].lookup(id)
	if o == nil {
		return nil, false
	}
	sn := o.snap.Load()
	if sn == nil || !sn.readable || sn.pooled {
		return nil, false
	}
	return sn, true
}

// ackRead queues a read_ack with the stored value. Handing the value to
// an ack creates an alias whose lifetime the server cannot observe (the
// ack sender and the transport encode at an unobservable later time),
// so the buffer's pool ownership dissolves: a value that was ever read
// is left to the GC when replaced, and only never-read values recycle
// through the pool. Called on the object's lane; the enqueue never
// blocks it.
func (s *Server) ackRead(to wire.ProcessID, reqID uint64, obj wire.ObjectID, o *objectState) {
	o.valuePooled = false
	s.enqueueAck(to, wire.NewFrame(wire.Envelope{
		Kind:   wire.KindReadAck,
		Object: obj,
		Tag:    o.tag,
		ReqID:  reqID,
		Value:  o.value,
	}))
}

// applyAndRelease installs (t, v) if newer and releases any parked reads
// whose barrier is now satisfied, reporting whether the stored value
// changed. pooled declares that v is a pool-owned buffer that no other
// holder (a queued forward, a recovery retransmission) aliases, so the
// NEXT apply may recycle it; the replaced value's buffer is recycled now
// if its ownership survived — i.e. it was pooled and never handed to a
// read ack (ackRead dissolves ownership, because ack encoding happens
// at an unobservable later time on the transport's writer). Called on
// the object's lane, which also makes every park-or-serve decision for
// the object, so the two never interleave; the caller republishes the
// read snapshot afterwards.
func (s *Server) applyAndRelease(objID wire.ObjectID, o *objectState, t tag.Tag, v []byte, pooled bool) bool {
	old, oldPooled := o.value, o.valuePooled
	if !o.apply(t, v) {
		return false
	}
	if oldPooled && !sameSlice(old, v) {
		wire.PutValue(old)
	}
	o.valuePooled = pooled
	// Release satisfied parked reads in place: compact the survivors
	// into the same backing array instead of building a fresh ready
	// slice per wakeup.
	if len(o.parked) > 0 {
		rest := o.parked[:0]
		for _, pr := range o.parked {
			if pr.barrier.LessEq(o.tag) {
				s.ackRead(pr.client, pr.reqID, objID, o)
			} else {
				rest = append(rest, pr)
			}
		}
		o.parked = rest
	}
	return true
}

// resolveWriteValue returns the value a write message installs. Elided
// writes look the value up in the pending set; when it is absent the tag
// is necessarily at or below the stored tag (pending entries are only
// pruned by applied writes), so no apply is needed and ok is false.
func (s *Server) resolveWriteValue(o *objectState, env *wire.Envelope) ([]byte, bool) {
	if env.Flags&wire.FlagValueElided == 0 {
		return env.Value, true
	}
	if v, ok := o.pending.get(env.Tag); ok {
		return v, true
	}
	if env.Tag.After(o.tag) {
		// Unreachable by protocol construction (see DESIGN.md §3.6);
		// surfacing it loudly beats silently serving a wrong value.
		s.log.Error("elided write without pending value", "tag", env.Tag, "object", env.Object)
	}
	return nil, false
}
