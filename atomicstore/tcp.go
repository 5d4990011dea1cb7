package atomicstore

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/tcpnet"
	"repro/internal/wire"
)

// Member names one ring member of a TCP deployment. The order of a
// []Member is the ring order and must be identical on every server and
// client; the handshake's membership hash enforces it.
type Member struct {
	ID   ServerID
	Addr string
}

// ParseRing parses the canonical "1=host:port,2=host:port,..." ring
// notation shared by the CLI tools, preserving ring order.
func ParseRing(s string) ([]Member, error) {
	if s == "" {
		return nil, errors.New("atomicstore: empty ring specification")
	}
	var ring []Member
	seen := make(map[ServerID]bool)
	for _, part := range strings.Split(s, ",") {
		if part == "" {
			continue
		}
		var id uint
		var addr string
		if _, err := fmt.Sscanf(part, "%d=%s", &id, &addr); err != nil {
			return nil, fmt.Errorf("atomicstore: bad ring entry %q (want id=host:port)", part)
		}
		pid := ServerID(id)
		if pid == wire.NoProcess {
			return nil, fmt.Errorf("atomicstore: ring entry %q uses reserved id 0", part)
		}
		if seen[pid] {
			return nil, fmt.Errorf("atomicstore: duplicate server id %d", id)
		}
		seen[pid] = true
		ring = append(ring, Member{ID: pid, Addr: addr})
	}
	return ring, nil
}

// ringParts splits a ring into the member id list (ring order) and the
// transport address book.
func ringParts(ring []Member) ([]ServerID, tcpnet.AddressBook, error) {
	if len(ring) == 0 {
		return nil, nil, errors.New("atomicstore: empty ring")
	}
	members := make([]ServerID, 0, len(ring))
	book := make(tcpnet.AddressBook, len(ring))
	for _, m := range ring {
		if _, dup := book[m.ID]; dup {
			return nil, nil, fmt.Errorf("atomicstore: duplicate server id %d", m.ID)
		}
		members = append(members, m.ID)
		book[m.ID] = m.Addr
	}
	return members, book, nil
}

// Server is one running storage server of a TCP ring.
type Server struct {
	id  ServerID
	ep  *tcpnet.Endpoint
	srv *core.Server

	members []ServerID
}

// Join starts this host's server of the TCP ring: it listens on the
// ring entry matching self, serves clients, and holds session
// connections to its ring successor (one per lane). Other servers need
// not be up yet — ring connections are opened lazily with retries;
// use CheckRing to validate the session against the successor once the
// cluster is expected up.
func Join(self ServerID, ring []Member, opts ...Option) (*Server, error) {
	cfg := buildConfig(config{}, opts)
	members, book, err := ringParts(ring)
	if err != nil {
		return nil, err
	}
	addr, ok := book[self]
	if !ok {
		return nil, fmt.Errorf("atomicstore: server %d not in ring", self)
	}
	coreCfg := cfg.coreConfig(self, members)
	if err := coreCfg.Validate(); err != nil {
		return nil, err
	}
	hello := coreCfg.SessionHello()
	ep, err := tcpnet.Listen(self, addr, book, tcpnet.Options{Hello: &hello})
	if err != nil {
		return nil, err
	}
	srv, err := core.NewServer(coreCfg, ep)
	if err != nil {
		_ = ep.Close()
		return nil, err
	}
	srv.Start()
	return &Server{id: self, ep: ep, srv: srv, members: members}, nil
}

// ID returns the server's process id.
func (s *Server) ID() ServerID { return s.id }

// Addr returns the listen address (useful when joining on port 0).
func (s *Server) Addr() string { return s.ep.Addr() }

// CheckRing eagerly opens and validates the session to the ring
// successor. A *wire.HandshakeError (errors.As) means this server and
// its successor disagree on wire version, lane fanout, or membership —
// a configuration bug worth crashing over; any other error is a
// transient connectivity failure worth retrying.
func (s *Server) CheckRing() error {
	succ := s.successor()
	if succ == s.id {
		return nil // single-server ring
	}
	return s.ep.Handshake(succ)
}

// successor returns the next member after self in the initial ring
// order (crashes are discovered later through the failure detector).
func (s *Server) successor() ServerID {
	for i, id := range s.members {
		if id == s.id {
			return s.members[(i+1)%len(s.members)]
		}
	}
	return s.id
}

// WALStats snapshots the server's write-ahead-log counters; zero when
// it runs without durability.
func (s *Server) WALStats() WALStats { return s.srv.WALStats() }

// Close stops the server and tears down its connections. Peers observe
// broken connections — in this model, a crash. A configured WAL is
// flushed and synced before close, so a graceful shutdown (SIGINT in
// the CLI) never leans on torn-tail repair at the next start.
func (s *Server) Close() error {
	s.srv.Stop()
	return s.ep.Close()
}

// Dial connects a client to a running TCP ring. The session to the
// first reachable server is validated eagerly: a misconfigured client
// (or cluster) fails here with a typed *wire.HandshakeError instead of
// timing out request by request. A fully unreachable ring is an error
// too. Without WithClientID the client takes a random id from a high
// range — two clients sharing an id would cross-talk on replies, so
// fixed ids are only for deployments that manage them explicitly.
func Dial(ring []Member, opts ...Option) (*Client, error) {
	cfg := buildConfig(config{}, opts)
	members, book, err := ringParts(ring)
	if err != nil {
		return nil, err
	}
	id := cfg.clientID
	if id == 0 {
		// 2^30 + 30 random bits: far above any plausible server id,
		// collision-free in practice without coordination.
		id = ServerID(1<<30 + rand.Int31n(1<<30))
	}
	hello := clientHello(id, members)
	ep := tcpnet.NewClient(id, book, tcpnet.Options{Hello: &hello})
	// Probe the server(s) this client will actually talk to: the pinned
	// server when one is configured, otherwise any member. The member
	// whose handshake validates becomes the client's reported pin
	// (PinnedServer), so callers and bench CSVs can record placement.
	probe := members
	if cfg.pinned != 0 {
		probe = []ServerID{cfg.pinned}
	}
	var pinned ServerID
	var lastErr error
	for _, sid := range probe {
		err := ep.Handshake(sid)
		if err == nil {
			pinned = sid
			lastErr = nil
			break
		}
		var herr *wire.HandshakeError
		if errors.As(err, &herr) {
			_ = ep.Close()
			return nil, fmt.Errorf("atomicstore: dial server %d: %w", sid, err)
		}
		lastErr = err
	}
	if lastErr != nil {
		_ = ep.Close()
		return nil, fmt.Errorf("atomicstore: no server reachable: %w", lastErr)
	}
	cl, err := client.New(ep, cfg.clientOptions(members))
	if err != nil {
		_ = ep.Close()
		return nil, err
	}
	return &Client{cl: cl, ep: ep, pinned: pinned}, nil
}
