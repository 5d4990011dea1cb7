package atomicstore

import (
	"fmt"
	"path/filepath"
	"sync"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/wire"
)

// coreConfig maps the façade options onto a server configuration.
func (c config) coreConfig(id ServerID, members []ServerID) core.Config {
	cfg := core.Config{
		ID:                  id,
		Members:             members,
		WriteLanes:          c.lanes,
		TrainLength:         c.trainLength,
		DisablePiggyback:    c.noPiggyback,
		DisableValueElision: c.noElision,
		DisableFairness:     c.noFairness,
		Logger:              c.logger,
	}
	if c.walDir != "" {
		cfg.WAL = wal.Config{
			// One subdirectory per server: a shared dir hosts a whole
			// in-process cluster, and on real hosts the extra level is
			// harmless.
			Dir:         filepath.Join(c.walDir, fmt.Sprintf("server-%d", id)),
			MerkleRoots: c.walAudit,
		}
	}
	return cfg
}

// clientOptions maps the façade options onto client options.
func (c config) clientOptions(members []ServerID) client.Options {
	opts := client.Options{
		Servers:         members,
		AttemptTimeout:  c.attemptTimeout,
		MaxAttempts:     c.maxAttempts,
		RetryBackoff:    c.retryBackoff,
		RetryBackoffMax: c.retryBackoffMax,
	}
	if c.pinned != 0 {
		opts.Policy = client.PolicyPinned
		// Rotate the membership so the pinned server is contacted first
		// but timeouts still fail over to the rest of the ring, as the
		// option has always documented. A pin outside the membership
		// (driving a lone server directly) keeps the strict single-entry
		// list.
		rotated := rotateToFront(members, c.pinned)
		if rotated == nil {
			rotated = []ServerID{c.pinned}
		}
		opts.Servers = rotated
	}
	return opts
}

// rotateToFront returns members rotated so id leads, or nil when id is
// not a member.
func rotateToFront(members []ServerID, id ServerID) []ServerID {
	for i, m := range members {
		if m == id {
			out := make([]ServerID, 0, len(members))
			out = append(out, members[i:]...)
			return append(out, members[:i]...)
		}
	}
	return nil
}

// clientHello is the session HELLO a client asserts: lane-unaware
// (clients never originate ring frames) but committed to the ring
// membership, so a client configured against the wrong cluster is
// rejected at connect time.
func clientHello(id ServerID, members []ServerID) wire.Hello {
	return wire.Hello{
		Version:        wire.HelloVersion,
		From:           id,
		Link:           wire.LinkGeneral,
		MembershipHash: wire.MembershipHash(members),
	}
}

// Cluster is an n-server ring running in-process over the in-memory
// transport, plus the factory for clients attached to it.
type Cluster struct {
	cfg     config
	net     *transport.MemNetwork
	members []ServerID

	mu      sync.Mutex
	servers map[ServerID]*core.Server
	eps     map[ServerID]*transport.MemEndpoint
	nextCl  ServerID
	closed  bool
}

// StartCluster starts an in-process ring of n servers (ids 1..n) and
// returns the running cluster. Servers communicate over an in-memory
// network with session validation and per-lane links, mirroring the
// TCP deployment's structure without sockets.
func StartCluster(n int, opts ...Option) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("atomicstore: cluster size %d", n)
	}
	cfg := buildConfig(config{}, opts)
	c := &Cluster{
		cfg:     cfg,
		net:     transport.NewMemNetwork(transport.MemNetworkOptions{}),
		servers: make(map[ServerID]*core.Server, n),
		eps:     make(map[ServerID]*transport.MemEndpoint, n),
		nextCl:  10000,
	}
	for i := 1; i <= n; i++ {
		c.members = append(c.members, ServerID(i))
	}
	for _, id := range c.members {
		if err := c.startServer(id); err != nil {
			_ = c.Close()
			return nil, err
		}
	}
	return c, nil
}

// startServer builds server id from the cluster's options on a fresh
// session endpoint, starts it, and records it as running. A durable
// server replays its write-ahead log inside core.NewServer, before it
// serves anything.
func (c *Cluster) startServer(id ServerID) error {
	coreCfg := c.cfg.coreConfig(id, c.members)
	ep, err := c.net.RegisterSession(coreCfg.SessionHello())
	if err != nil {
		return err
	}
	srv, err := core.NewServer(coreCfg, ep)
	if err != nil {
		_ = ep.Close()
		return err
	}
	srv.Start()
	c.mu.Lock()
	c.servers[id] = srv
	c.eps[id] = ep
	c.mu.Unlock()
	return nil
}

// Members returns the ring membership in ring order.
func (c *Cluster) Members() []ServerID {
	return append([]ServerID(nil), c.members...)
}

// Client attaches a new client to the cluster. Options extend (and
// override) the ones the cluster was started with — typically
// WithPinnedServer or WithAttemptTimeout.
func (c *Cluster) Client(opts ...Option) (*Client, error) {
	cfg := buildConfig(c.cfg, opts)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("atomicstore: cluster closed")
	}
	id := cfg.clientID
	if id == 0 {
		c.nextCl++
		id = c.nextCl
	}
	c.mu.Unlock()
	ep, err := c.net.RegisterSession(clientHello(id, c.members))
	if err != nil {
		return nil, err
	}
	cl, err := client.New(ep, cfg.clientOptions(c.members))
	if err != nil {
		_ = ep.Close()
		return nil, err
	}
	return &Client{cl: cl, ep: ep, pinned: cfg.pinned}, nil
}

// Crash kills a set of servers abruptly and at once: their endpoints
// stop delivering, every other process observes each failure through
// the perfect failure detector, and — when the cluster is durable — WAL
// records staged since the last covering sync are dropped on the floor,
// exactly as a process crash would drop them. The whole set leaves the
// network before any survivor is notified, so no victim splices out
// another and acks writes that one never logged (a sequence of Crash
// calls is a sequence of crashes, each seen by the later victims).
// Exercises the ring's splice-and-recover path; Restart exercises log
// recovery. Ids not running are skipped.
func (c *Cluster) Crash(ids ...ServerID) {
	var (
		victims []ServerID
		srvs    []*core.Server
		eps     []*transport.MemEndpoint
	)
	c.mu.Lock()
	for _, id := range ids {
		if srv := c.servers[id]; srv != nil {
			victims = append(victims, id)
			srvs = append(srvs, srv)
			eps = append(eps, c.eps[id])
			delete(c.servers, id)
			delete(c.eps, id)
		}
	}
	c.mu.Unlock()
	if len(victims) == 0 {
		return
	}
	c.net.Crash(victims...)
	for i, srv := range srvs {
		srv.Kill()
		_ = eps[i].Close()
	}
}

// Restart brings a crashed (or freshly stopped) server back up on a
// new endpoint. With durability configured the server replays its
// write-ahead log — before rejoining the ring — and re-serves every
// write it acknowledged before the crash. The durability guarantee is
// scoped to restarts of the full membership alive at the crash: a
// single server restarted into a ring that already spliced it out
// stays spliced (peers' views have no rejoin transition; live state
// transfer is future work), so crash-recovery tests kill and restart
// every server. Restarting a running server is an error; Crash it
// first.
func (c *Cluster) Restart(id ServerID) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("atomicstore: cluster closed")
	}
	if _, running := c.servers[id]; running {
		c.mu.Unlock()
		return fmt.Errorf("atomicstore: server %d still running", id)
	}
	c.mu.Unlock()
	return c.startServer(id)
}

// Counters is one sampling of every robustness counter a server keeps;
// see core.CounterSnapshot for the field-by-field invariants.
type Counters = core.CounterSnapshot

// Counters snapshots one server's robustness counters; zero when the
// server is down.
func (c *Cluster) Counters(id ServerID) Counters {
	c.mu.Lock()
	srv := c.servers[id]
	c.mu.Unlock()
	if srv == nil {
		return Counters{}
	}
	return srv.CounterSnapshot()
}

// Network exposes the cluster's in-memory network — the seam scenario
// harnesses use to install fault injectors (transport.FaultInjector)
// between the real servers. Returns the live network, not a copy;
// callers must not Crash processes through it directly (use
// Cluster.Crash, which also stops the server).
func (c *Cluster) Network() *transport.MemNetwork {
	return c.net
}

// WALStats snapshots one server's write-ahead-log counters; zero when
// the server is down or the cluster runs without durability.
func (c *Cluster) WALStats(id ServerID) WALStats {
	c.mu.Lock()
	srv := c.servers[id]
	c.mu.Unlock()
	if srv == nil {
		return WALStats{}
	}
	return srv.WALStats()
}

// Close stops every remaining server.
func (c *Cluster) Close() error {
	c.mu.Lock()
	c.closed = true
	servers := c.servers
	eps := c.eps
	c.servers = map[ServerID]*core.Server{}
	c.eps = map[ServerID]*transport.MemEndpoint{}
	c.mu.Unlock()
	for id, srv := range servers {
		srv.Stop()
		_ = eps[id].Close()
	}
	// Stop the network's delay line (if a fault injector ever parked
	// frames on it) and retire anything still undelivered.
	c.net.Close()
	return nil
}
