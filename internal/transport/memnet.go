package transport

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// DefaultInboxCapacity is the per-endpoint inbox buffer used when the
// network option is zero. It is deliberately small: the fairness
// mechanism of the storage algorithm only engages when links exert
// backpressure, exactly as a saturated NIC would.
const DefaultInboxCapacity = 64

// MemNetworkOptions configure an in-memory network.
type MemNetworkOptions struct {
	// InboxCapacity is the per-endpoint inbound buffer. Zero means
	// DefaultInboxCapacity.
	InboxCapacity int
}

func (o MemNetworkOptions) withDefaults() MemNetworkOptions {
	if o.InboxCapacity <= 0 {
		o.InboxCapacity = DefaultInboxCapacity
	}
	return o
}

// MemNetwork is an in-memory message hub connecting endpoints by process
// id. It supports injected crashes, which are reported to every other
// endpoint through the perfect failure detector channel — modelling the
// paper's cluster where a broken TCP connection reliably indicates a
// crash.
type MemNetwork struct {
	opts MemNetworkOptions

	// faults, when set, decides the fate of every frame crossing the
	// network (drop, delay, deliver) — the scenario runner's seam. See
	// faults.go; nil means every frame is delivered.
	faults atomic.Pointer[injectorBox]
	// dline parks frames a verdict delayed; its goroutine starts on the
	// first delayed frame.
	dline delayLine

	mu        sync.Mutex
	endpoints map[wire.ProcessID]*MemEndpoint
}

// NewMemNetwork returns an empty in-memory network.
func NewMemNetwork(opts MemNetworkOptions) *MemNetwork {
	n := &MemNetwork{
		opts:      opts.withDefaults(),
		endpoints: make(map[wire.ProcessID]*MemEndpoint),
	}
	n.dline.net = n
	return n
}

// Register attaches a new endpoint for the given process id. The
// endpoint is session-less: it asserts no HELLO, is never validated,
// and reaches only other session-less endpoints (only tests use it).
func (n *MemNetwork) Register(id wire.ProcessID) (*MemEndpoint, error) {
	return n.register(id, nil)
}

// RegisterSession attaches a new endpoint that asserts the given HELLO.
// Frames between two session endpoints flow only if their HELLOs are
// compatible (wire version, lane fanout, membership hash); the first
// Send or Handshake to an incompatible peer fails with a typed
// *wire.HandshakeError — the in-memory equivalent of tcpnet rejecting
// the connection at handshake time. A session-less Register endpoint is
// refused the same way, as tcpnet refuses the bare preamble.
func (n *MemNetwork) RegisterSession(h wire.Hello) (*MemEndpoint, error) {
	return n.register(h.From, &h)
}

func (n *MemNetwork) register(id wire.ProcessID, hello *wire.Hello) (*MemEndpoint, error) {
	if id == wire.NoProcess {
		return nil, fmt.Errorf("transport: cannot register %v", id)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.endpoints[id]; dup {
		return nil, fmt.Errorf("transport: process %d already registered", id)
	}
	ep := &MemEndpoint{
		net:      n,
		id:       id,
		hello:    hello,
		inbox:    make(chan Inbound, n.opts.InboxCapacity),
		failures: make(chan wire.ProcessID, 64),
		down:     make(chan struct{}),
	}
	n.endpoints[id] = ep
	return ep, nil
}

// Crash simulates the simultaneous crash of a set of processes: their
// endpoints stop accepting and delivering messages, and every surviving
// endpoint receives one failure notification per victim. The whole set
// leaves the network before anyone is notified, so no survivor's
// failure detector fires while another victim can still act on it —
// crashing {1, 2} in one call is one event, not two. Unknown or
// already-down ids are skipped.
func (n *MemNetwork) Crash(ids ...wire.ProcessID) {
	n.mu.Lock()
	victims := make([]*MemEndpoint, 0, len(ids))
	for _, id := range ids {
		if ep := n.endpoints[id]; ep != nil {
			victims = append(victims, ep)
			delete(n.endpoints, id)
		}
	}
	survivors := make([]*MemEndpoint, 0, len(n.endpoints))
	for _, ep := range n.endpoints {
		survivors = append(survivors, ep)
	}
	n.mu.Unlock()

	for _, v := range victims {
		v.shutdown()
	}
	for _, ep := range survivors {
		for _, v := range victims {
			ep.notifyFailure(v.id)
		}
	}
}

// lookup returns the live endpoint for id, or nil.
func (n *MemNetwork) lookup(id wire.ProcessID) *MemEndpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.endpoints[id]
}

// remove detaches an endpoint without failure notifications.
func (n *MemNetwork) remove(id wire.ProcessID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.endpoints, id)
}

// laneGeneral is the link lane of the unpinned link, which carries
// client and control traffic.
const laneGeneral = -1

// MemEndpoint is an in-memory Endpoint.
type MemEndpoint struct {
	net      *MemNetwork
	id       wire.ProcessID
	hello    *wire.Hello // nil for session-less endpoints
	inbox    chan Inbound
	failures chan wire.ProcessID

	// demux, when set, routes inbound frames to per-lane inboxes
	// instead of the shared inbox (Demuxer).
	demux atomic.Pointer[DemuxTable]

	downOnce sync.Once
	down     chan struct{}
}

var (
	_ Endpoint   = (*MemEndpoint)(nil)
	_ Demuxer    = (*MemEndpoint)(nil)
	_ LaneSender = (*MemEndpoint)(nil)
	_ Handshaker = (*MemEndpoint)(nil)
	_ TrySender  = (*MemEndpoint)(nil)
)

// SetDemux implements Demuxer: subsequent deliveries to this endpoint go
// to inboxes[route(frame)], with the shared inbox as the out-of-range
// fallback.
func (e *MemEndpoint) SetDemux(route RouteFunc, inboxes []chan Inbound) {
	e.demux.Store(&DemuxTable{Route: route, Inboxes: inboxes})
}

// inboxFor returns the channel a frame bound for this endpoint goes to.
func (e *MemEndpoint) inboxFor(inb *Inbound) chan Inbound {
	if d := e.demux.Load(); d != nil {
		return d.Target(e.inbox, inb)
	}
	return e.inbox
}

// ID implements Endpoint.
func (e *MemEndpoint) ID() wire.ProcessID { return e.id }

// Inbox implements Endpoint.
func (e *MemEndpoint) Inbox() <-chan Inbound { return e.inbox }

// Failures implements Endpoint.
func (e *MemEndpoint) Failures() <-chan wire.ProcessID { return e.failures }

// Done implements Endpoint.
func (e *MemEndpoint) Done() <-chan struct{} { return e.down }

// Send implements Endpoint. Self-sends are allowed (a one-server ring
// forwards to itself). The frame is handed directly to the destination
// inbox, so Send blocks while that inbox is full — the tightest
// backpressure. Between two session endpoints every frame is preceded
// by the HELLO compatibility check; an incompatible peer fails with a
// *wire.HandshakeError.
func (e *MemEndpoint) Send(to wire.ProcessID, f wire.Frame) error {
	return e.sendLane(to, laneGeneral, f)
}

// SendLane implements LaneSender: the frame travels the dedicated link
// of the given ring lane, delivered with the lane as the link's
// negotiated lane so the receiver demultiplexes by session state rather
// than the frame header. Peers that did not negotiate wire.CapLaneLinks
// are reached over the general link instead.
func (e *MemEndpoint) SendLane(to wire.ProcessID, lane int, f wire.Frame) error {
	if lane < 0 {
		lane = laneGeneral
	}
	return e.sendLane(to, lane, f)
}

func (e *MemEndpoint) sendLane(to wire.ProcessID, lane int, f wire.Frame) error {
	select {
	case <-e.down:
		return ErrClosed
	default:
	}
	dst := e.net.lookup(to)
	if dst == nil {
		return fmt.Errorf("%w: %d", ErrPeerDown, to)
	}
	if err := e.checkSession(to, dst); err != nil {
		return err
	}
	if !e.laneLinksWith(dst) {
		lane = laneGeneral
	}
	// The injected-fault verdict sits at the network edge, after the
	// frame was accepted: a dropped frame is a successful Send whose
	// bytes died on the wire, a delayed one parks on the delay line.
	switch v := e.net.verdict(e.id, to, lane, &f); {
	case v.Drop:
		f.Retire()
		return nil
	case v.Delay > 0:
		e.net.dline.push(e.id, to, lane, f, v.Delay)
		return nil
	}
	inb := Inbound{From: e.id, Frame: f, LinkLane: lane + 1}
	ch := dst.inboxFor(&inb)
	if ch == nil {
		// Routed to RouteDrop: discarded by design. Retire any pooled
		// buffers like the other drop sites (none arise over memnet
		// today, but the ownership rule should not depend on that).
		inb.Frame.Retire()
		return nil
	}
	select {
	case ch <- inb:
		return nil
	case <-dst.down:
		return fmt.Errorf("%w: %d", ErrPeerDown, to)
	case <-e.down:
		return ErrClosed
	}
}

// TrySend implements TrySender: the frame travels the general link only
// if the destination inbox can accept it without blocking. False
// (unknown peer, incompatible session, full inbox) commits to nothing;
// the caller falls back to Send on another goroutine.
func (e *MemEndpoint) TrySend(to wire.ProcessID, f wire.Frame) bool {
	select {
	case <-e.down:
		return false
	default:
	}
	dst := e.net.lookup(to)
	if dst == nil {
		return false
	}
	if e.checkSession(to, dst) != nil {
		return false
	}
	// Same fault seam as sendLane: a Drop or Delay verdict counts as an
	// accepted send (the frame left this process without blocking).
	switch v := e.net.verdict(e.id, to, laneGeneral, &f); {
	case v.Drop:
		f.Retire()
		return true
	case v.Delay > 0:
		e.net.dline.push(e.id, to, laneGeneral, f, v.Delay)
		return true
	}
	inb := Inbound{From: e.id, Frame: f, LinkLane: laneGeneral + 1}
	ch := dst.inboxFor(&inb)
	if ch == nil {
		inb.Frame.Retire() // routed to RouteDrop: discarded by design
		return true
	}
	select {
	case ch <- inb:
		return true
	default:
		return false
	}
}

// Handshake implements Handshaker: it validates the session against the
// peer without sending a frame, returning a *wire.HandshakeError when
// the two HELLOs are incompatible.
func (e *MemEndpoint) Handshake(to wire.ProcessID) error {
	select {
	case <-e.down:
		return ErrClosed
	default:
	}
	dst := e.net.lookup(to)
	if dst == nil {
		return fmt.Errorf("%w: %d", ErrPeerDown, to)
	}
	return e.checkSession(to, dst)
}

// checkSession validates this endpoint's HELLO against the peer's.
// Session-less endpoints talk only to each other: toward a session
// endpoint the missing HELLO reads as wire version 0, which fails the
// check with the same typed error tcpnet gives the bare preamble.
func (e *MemEndpoint) checkSession(to wire.ProcessID, dst *MemEndpoint) error {
	local, remote := e.hello, dst.hello
	if local == nil && remote == nil {
		return nil
	}
	var none wire.Hello
	if local == nil {
		local = &none
	}
	if remote == nil {
		remote = &none
	}
	if err := local.CheckCompatible(remote); err != nil {
		return fmt.Errorf("transport: handshake with %d: %w", to, err)
	}
	return nil
}

// laneLinksWith reports whether both ends negotiated per-lane links.
func (e *MemEndpoint) laneLinksWith(dst *MemEndpoint) bool {
	return e.hello != nil && dst.hello != nil &&
		e.hello.Capabilities&dst.hello.Capabilities&wire.CapLaneLinks != 0
}

// Close implements Endpoint: it detaches silently (no failure notices).
func (e *MemEndpoint) Close() error {
	e.net.remove(e.id)
	e.shutdown()
	return nil
}

// shutdown marks the endpoint down, releasing blocked senders/receivers.
func (e *MemEndpoint) shutdown() {
	e.downOnce.Do(func() { close(e.down) })
}

// notifyFailure enqueues a failure-detector notification, dropping it if
// the endpoint is already down.
func (e *MemEndpoint) notifyFailure(id wire.ProcessID) {
	select {
	case e.failures <- id:
	case <-e.down:
	}
}
