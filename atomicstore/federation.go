package atomicstore

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"repro/internal/placement"
	"repro/internal/store"
)

// A Federation is N independent rings, each owning a consistent-hash
// slice of the object space (internal/placement.RingOf). Rings share
// nothing: each has its own membership, its own control plane (crash
// gossip, views, recovery), and its own network — a crash storm in one
// ring cannot stall another, and aggregate throughput scales with ring
// count. Routing is
// entirely client-side: a FederatedClient holds one pinned client per
// ring and steers every operation by object id, so servers never need
// to know the federation exists.
//
// The atomicity guarantee composes for free: the paper's protocol is
// per-register, and placement assigns every register to exactly one
// ring, so per-object linearizability inside each ring is per-object
// linearizability of the federation.
type Federation struct {
	rings []*Cluster

	mu      sync.Mutex
	nextPin int
	closed  bool
}

// StartFederation starts rings in-process clusters of serversPerRing
// servers each, every ring on its own in-memory network. Options apply
// to every ring's servers (and are inherited by clients), exactly as
// StartCluster applies them to its one ring.
func StartFederation(rings, serversPerRing int, opts ...Option) (*Federation, error) {
	if rings <= 0 {
		return nil, fmt.Errorf("atomicstore: federation of %d rings", rings)
	}
	f := &Federation{rings: make([]*Cluster, 0, rings)}
	for r := 0; r < rings; r++ {
		c, err := StartCluster(serversPerRing, opts...)
		if err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("atomicstore: start ring %d: %w", r, err)
		}
		f.rings = append(f.rings, c)
	}
	return f, nil
}

// Rings returns the ring count (the fan-out RingOf routes over).
func (f *Federation) Rings() int { return len(f.rings) }

// Ring returns one ring's cluster, for tests and tools that need to
// reach inside (crash a member, attach a single-ring client).
func (f *Federation) Ring(r int) *Cluster { return f.rings[r] }

// Crash kills one server of one ring. Only that ring's failure
// detector and recovery react; the other rings never learn of it.
func (f *Federation) Crash(ring int, id ServerID) { f.rings[ring].Crash(id) }

// Client attaches a new federated client: one pinned client per ring,
// pins spread round-robin over each ring's members so a fleet of
// federated clients loads every server evenly. Options extend the
// federation's (WithAttemptTimeout and friends); WithPinnedServer is
// overridden per ring by the spread.
func (f *Federation) Client(opts ...Option) (*FederatedClient, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, errors.New("atomicstore: federation closed")
	}
	seq := f.nextPin
	f.nextPin++
	f.mu.Unlock()

	clients := make([]*Client, 0, len(f.rings))
	for r, ring := range f.rings {
		members := ring.Members()
		pin := members[(seq+r)%len(members)]
		cl, err := ring.Client(append(append([]Option(nil), opts...), WithPinnedServer(pin))...)
		if err != nil {
			for _, c := range clients {
				_ = c.Close()
			}
			return nil, fmt.Errorf("atomicstore: ring %d client: %w", r, err)
		}
		clients = append(clients, cl)
	}
	fc, err := NewFederatedClient(clients)
	if err != nil {
		for _, c := range clients {
			_ = c.Close()
		}
		return nil, err
	}
	return fc, nil
}

// Close stops every ring.
func (f *Federation) Close() error {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	var first error
	for _, c := range f.rings {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// FederatedClient multiplexes one client per ring behind the single-
// ring Client API: every operation is routed client-side to the ring
// owning its object (placement.RingOf — a handful of arithmetic ops,
// no allocation, an allocation test in internal/placement guards it). The rings may
// live on different transports: NewFederatedClient accepts any mix of
// in-process and TCP clients.
type FederatedClient struct {
	rings []*Client
}

// NewFederatedClient assembles a federated client from one already-
// connected client per ring, in ring order. This is the mixed-
// transport constructor — ring 0 in-process, ring 1 over TCP is fine —
// and the building block Federation.Client and DialFederation use.
// The federated client owns the ring clients: Close closes them all.
func NewFederatedClient(ringClients []*Client) (*FederatedClient, error) {
	if len(ringClients) == 0 {
		return nil, errors.New("atomicstore: federated client needs at least one ring")
	}
	for r, cl := range ringClients {
		if cl == nil {
			return nil, fmt.Errorf("atomicstore: federated client ring %d is nil", r)
		}
	}
	return &FederatedClient{rings: append([]*Client(nil), ringClients...)}, nil
}

// Rings returns the ring count this client routes over.
func (fc *FederatedClient) Rings() int { return len(fc.rings) }

// RingOf exposes the routing decision: the ring that owns an object.
// Deterministic and identical in every process (placement is the
// single source of truth), so any client can partition work by ring.
func (fc *FederatedClient) RingOf(object ObjectID) int {
	return placement.RingOf(object, len(fc.rings))
}

// RingClient returns the underlying client for one ring, for callers
// that already partitioned their work by RingOf and want to skip the
// per-operation routing.
func (fc *FederatedClient) RingClient(ring int) *Client { return fc.rings[ring] }

// RingPins reports, per ring, the member each ring client is pinned to
// (see Client.PinnedServer) — placement provenance for bench CSVs.
func (fc *FederatedClient) RingPins() []ServerID {
	pins := make([]ServerID, len(fc.rings))
	for r, cl := range fc.rings {
		pins[r] = cl.PinnedServer()
	}
	return pins
}

// Write stores value in the given register on the ring that owns it.
func (fc *FederatedClient) Write(ctx context.Context, object ObjectID, value []byte) (Version, error) {
	return fc.rings[fc.RingOf(object)].Write(ctx, object, value)
}

// WriteDetailed is Write plus the attempt count (see Client).
func (fc *FederatedClient) WriteDetailed(ctx context.Context, object ObjectID, value []byte) (Version, int, error) {
	return fc.rings[fc.RingOf(object)].WriteDetailed(ctx, object, value)
}

// Read returns the register's current value and version from the ring
// that owns it.
func (fc *FederatedClient) Read(ctx context.Context, object ObjectID) ([]byte, Version, error) {
	return fc.rings[fc.RingOf(object)].Read(ctx, object)
}

// KV returns a key-value view over the whole federation: keys hash to
// registers (placement.ObjectOfKey, via the store), registers hash to
// rings, and per-key atomicity carries through because each register
// lives on exactly one ring.
func (fc *FederatedClient) KV(shards int) (*KV, error) {
	kv, err := store.New(fc, shards)
	if err != nil {
		return nil, err
	}
	return &KV{kv: kv}, nil
}

// Close closes every ring client.
func (fc *FederatedClient) Close() error {
	var first error
	for _, cl := range fc.rings {
		if err := cl.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ParseFederation parses the federation ring notation: ring specs in
// ring order separated by ";", each in the single-ring
// "id=host:port,..." notation of ParseRing. Server ids must be unique
// within a ring; distinct rings are independent session domains, so
// reusing an id across rings is allowed (each ring's membership hash
// covers only that ring).
//
//	"1=h:p,2=h:p;3=h:p,4=h:p"  — two rings of two servers each
func ParseFederation(s string) ([][]Member, error) {
	if s == "" {
		return nil, errors.New("atomicstore: empty federation specification")
	}
	var rings [][]Member
	for i, part := range strings.Split(s, ";") {
		if part == "" {
			continue
		}
		ring, err := ParseRing(part)
		if err != nil {
			return nil, fmt.Errorf("atomicstore: federation ring %d: %w", i, err)
		}
		rings = append(rings, ring)
	}
	if len(rings) == 0 {
		return nil, errors.New("atomicstore: federation specification names no rings")
	}
	return rings, nil
}

// DialFederation connects a client to a running TCP federation: one
// dialed client per ring, each pinned to one member (a random ring
// offset spreads distinct clients over the members; WithPinnedServer
// cannot express per-ring pins, so the spread owns the choice). Every
// ring is validated eagerly, exactly like Dial; a misconfigured ring
// fails the whole dial with a typed *wire.HandshakeError.
func DialFederation(rings [][]Member, opts ...Option) (*FederatedClient, error) {
	if len(rings) == 0 {
		return nil, errors.New("atomicstore: federation has no rings")
	}
	clients := make([]*Client, 0, len(rings))
	closeAll := func() {
		for _, c := range clients {
			_ = c.Close()
		}
	}
	offset := rand.Int()
	for r, ring := range rings {
		if len(ring) == 0 {
			closeAll()
			return nil, fmt.Errorf("atomicstore: federation ring %d is empty", r)
		}
		pin := ring[(offset+r)%len(ring)].ID
		cl, err := Dial(ring, append(append([]Option(nil), opts...), WithPinnedServer(pin))...)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("atomicstore: dial ring %d: %w", r, err)
		}
		clients = append(clients, cl)
	}
	return NewFederatedClient(clients)
}
