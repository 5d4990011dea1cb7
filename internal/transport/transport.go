// Package transport defines the point-to-point messaging abstraction the
// storage algorithm runs on, and provides an in-memory implementation with
// crash injection and a perfect failure detector. The paper's cluster
// model (reliable bi-directional channels, perfect failure detection via
// broken TCP connections) maps onto this interface; package tcpnet
// provides the real-TCP implementation of the same interface.
package transport

import (
	"errors"

	"repro/internal/wire"
)

// Transport errors.
var (
	// ErrPeerDown is returned by Send when the destination has crashed.
	ErrPeerDown = errors.New("transport: peer down")
	// ErrClosed is returned when the local endpoint is closed or crashed.
	ErrClosed = errors.New("transport: endpoint closed")
	// ErrUnknownPeer is returned when the destination was never registered.
	ErrUnknownPeer = errors.New("transport: unknown peer")
)

// Inbound is a received frame together with its sender.
type Inbound struct {
	// From is the process that sent the frame.
	From wire.ProcessID
	// Frame is the received frame.
	Frame wire.Frame
}

// RouteFunc maps an inbound frame to the index of the per-lane inbox
// that must receive it, or RouteDrop to discard it. It is called on the
// delivering goroutine and must be safe for concurrent use. It must not
// block: under memnet the delivering goroutine is the sender's. A route
// may consume the frame itself and return RouteDrop, as the client's
// ack route does.
type RouteFunc func(*Inbound) int

// RouteDrop, returned by a RouteFunc, discards the frame instead of
// delivering it anywhere — a ring frame addressed to a lane this server
// does not have is misconfiguration, and routing it to an arbitrary
// lane would corrupt that lane's protocol state. Any other out-of-range
// index falls back to the endpoint's main inbox.
const RouteDrop = -1 << 30

// Demuxer is implemented by endpoints that can deliver inbound frames
// straight into per-lane inboxes, so a lane-sharded server never funnels
// its ring traffic through one channel, and a client takes its acks on
// the delivering goroutine with no inbox at all. After SetDemux, frames are
// routed with route and delivered to inboxes[route(frame)]; an index out
// of range falls back to the endpoint's main Inbox. Frames that arrived
// before SetDemux stay in the main Inbox — the owner drains it.
// SetDemux must be called at most once, before or while traffic flows.
type Demuxer interface {
	SetDemux(route RouteFunc, inboxes []chan Inbound)
}

// DemuxTable is an installed per-lane routing table, shared by the
// transport implementations so the routing-and-fallback contract lives
// in exactly one place.
type DemuxTable struct {
	Route   RouteFunc
	Inboxes []chan Inbound
}

// Target returns the channel that must receive inb: the routed inbox,
// fallback when the route index is out of range, or nil when the route
// says RouteDrop (the caller discards the frame).
func (d *DemuxTable) Target(fallback chan Inbound, inb *Inbound) chan Inbound {
	switch i := d.Route(inb); {
	case i == RouteDrop:
		return nil
	case i >= 0 && i < len(d.Inboxes):
		return d.Inboxes[i]
	}
	return fallback
}

// Endpoint is one process's attachment to the network. Implementations
// must make Send safe for concurrent use; Inbox and Failures each deliver
// to however many readers the owner chooses (the algorithm uses one).
type Endpoint interface {
	// ID returns the process id this endpoint is registered under.
	ID() wire.ProcessID
	// Send delivers a frame to the destination process. It blocks when
	// the destination's inbox is full (backpressure), and returns
	// ErrPeerDown if the destination crashed, ErrClosed if the local
	// endpoint is closed.
	Send(to wire.ProcessID, f wire.Frame) error
	// Inbox returns the channel of received frames. It is never closed
	// while the endpoint is open; after Close or a local crash, readers
	// should select on Done as well.
	Inbox() <-chan Inbound
	// Failures returns the perfect-failure-detector channel: each crash
	// of another process is reported exactly once.
	Failures() <-chan wire.ProcessID
	// Done is closed when the endpoint is closed or crashed.
	Done() <-chan struct{}
	// Close detaches the endpoint without signalling a failure to
	// other processes (used for orderly test teardown).
	Close() error
}

// TrySender is implemented by endpoints that can attempt a send which
// provably cannot block: TrySend returns true only when the frame was
// accepted without waiting — a non-blocking push onto an existing
// link's queue or the destination's inbox. It never dials, never waits
// for buffer space, and never blocks on a slow peer. False means "not
// deliverable without blocking" (full queue, no established link,
// incompatible session) and commits to nothing: the caller falls back
// to a path that may block, typically a per-destination queue drained
// off the hot goroutine. A true result gives the same delivery
// guarantee as a nil-returning Send — accepted frames can still be
// lost if the peer dies afterwards, exactly like Send.
type TrySender interface {
	TrySend(to wire.ProcessID, f wire.Frame) bool
}

// Handshaker is implemented by session endpoints that can eagerly open
// and validate the session to a peer instead of waiting for the first
// Send. A *wire.HandshakeError (via errors.As) means the peer is
// incompatibly configured — wrong wire version, lane fanout, or ring
// membership — and retrying is pointless; other errors are transient
// connectivity failures.
type Handshaker interface {
	Handshake(to wire.ProcessID) error
}
