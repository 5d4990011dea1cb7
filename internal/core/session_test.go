package core_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/tag"
	"repro/internal/tcpnet"
	"repro/internal/transport"
	"repro/internal/wire"
)

// newSessionTCPCluster is newTCPCluster with every endpoint in session
// mode: servers assert their Config.SessionHello, so connections are
// validated and the ring traffic shares the one link to the successor.
// mods tweak each server's config after ID and Members are set.
func newSessionTCPCluster(t *testing.T, n int, mods ...configMod) (*tcpCluster, []*core.Server) {
	t.Helper()
	c := &tcpCluster{
		t:       t,
		book:    make(tcpnet.AddressBook),
		servers: make(map[wire.ProcessID]*core.Server),
		eps:     make(map[wire.ProcessID]*tcpnet.Endpoint),
		next:    2000,
	}
	tmp := make([]*tcpnet.Endpoint, 0, n)
	for i := 1; i <= n; i++ {
		id := wire.ProcessID(i)
		c.members = append(c.members, id)
		ep, err := tcpnet.Listen(id, "127.0.0.1:0", nil, tcpnet.Options{})
		if err != nil {
			t.Fatal(err)
		}
		c.book[id] = ep.Addr()
		tmp = append(tmp, ep)
	}
	for _, ep := range tmp {
		_ = ep.Close()
	}
	var servers []*core.Server
	for _, id := range c.members {
		cfg := core.Config{ID: id, Members: c.members}
		for _, mod := range mods {
			mod(&cfg)
		}
		hello := cfg.SessionHello()
		ep, err := tcpnet.Listen(id, c.book[id], c.book, tcpnet.Options{Hello: &hello})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := core.NewServer(cfg, ep)
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		c.servers[id] = srv
		c.eps[id] = ep
		servers = append(servers, srv)
	}
	t.Cleanup(func() {
		for id, srv := range c.servers {
			srv.Stop()
			_ = c.eps[id].Close()
		}
	})
	return c, servers
}

// newSessionClient attaches a client whose endpoint asserts a
// lane-unaware HELLO committed to the cluster membership.
func (c *tcpCluster) newSessionClient(timeout time.Duration) *client.Client {
	c.t.Helper()
	return c.sessionClient(client.Options{Servers: c.members, AttemptTimeout: timeout})
}

// pinnedSessionClient attaches a session client that only ever talks to
// one server.
func (c *tcpCluster) pinnedSessionClient(server wire.ProcessID) *client.Client {
	c.t.Helper()
	return c.sessionClient(client.Options{Servers: []wire.ProcessID{server}, Policy: client.PolicyPinned})
}

func (c *tcpCluster) sessionClient(opts client.Options) *client.Client {
	c.t.Helper()
	c.mu.Lock()
	c.next++
	id := c.next
	c.mu.Unlock()
	hello := wire.Hello{
		Version:        wire.HelloVersion,
		From:           id,
		MembershipHash: wire.MembershipHash(c.members),
	}
	ep := tcpnet.NewClient(id, c.book, tcpnet.Options{Hello: &hello})
	if opts.AttemptTimeout <= 0 {
		opts.AttemptTimeout = 5 * time.Second
	}
	cl, err := client.New(ep, opts)
	if err != nil {
		c.t.Fatal(err)
	}
	c.t.Cleanup(func() {
		_ = cl.Close()
		_ = ep.Close()
	})
	return cl
}

// TestSessionTCPCluster runs the full algorithm over session endpoints:
// validated connections, one shared ring link per peer, and crash
// recovery.
func TestSessionTCPCluster(t *testing.T) {
	c, _ := newSessionTCPCluster(t, 3)
	cl := c.newSessionClient(time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	wtag, err := cl.Write(ctx, 7, []byte("over-sessions"))
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	got, rtag, err := cl.Read(ctx, 7)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if string(got) != "over-sessions" || rtag != wtag {
		t.Fatalf("read %q tag %s, want over-sessions tag %s", got, rtag, wtag)
	}

	c.crash(2)
	deadline := time.Now().Add(20 * time.Second)
	for {
		if _, err := cl.Write(ctx, 7, []byte("after")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("write never succeeded after crash")
		}
	}
	got, _, err = cl.Read(ctx, 7)
	if err != nil {
		t.Fatalf("read after crash: %v", err)
	}
	if string(got) != "after" {
		t.Fatalf("read %q, want after", got)
	}
	// Recovery just re-queued values on the survivors; every robustness
	// counter must still read clean.
	for id, srv := range c.servers {
		assertCleanCounters(t, id, srv)
	}
}

// TestSessionWriteLanesMismatch is the acceptance test for the
// handshake: a server must refuse, with a typed *wire.HandshakeError
// on both the TCP and the in-memory transport, a peer whose HELLO
// asserts four lanes — what a server binary from before lanes were
// removed sends when started with four — and a server whose config
// disagrees on membership.
func TestSessionWriteLanesMismatch(t *testing.T) {
	members := []wire.ProcessID{1, 2}
	mkCfg := func(id wire.ProcessID, m []wire.ProcessID) core.Config {
		return core.Config{ID: id, Members: m}
	}
	// fourLanes is the older peer's HELLO: same version and membership,
	// four lanes.
	fourLanes := func(id wire.ProcessID) wire.Hello {
		cfg := mkCfg(id, members)
		h := cfg.SessionHello()
		h.Lanes = 4
		return h
	}

	t.Run("tcp", func(t *testing.T) {
		book := make(tcpnet.AddressBook)
		for _, id := range members {
			ep, err := tcpnet.Listen(id, "127.0.0.1:0", nil, tcpnet.Options{})
			if err != nil {
				t.Fatal(err)
			}
			book[id] = ep.Addr()
			_ = ep.Close()
		}
		cfg1 := mkCfg(1, members)
		h1, h2 := cfg1.SessionHello(), fourLanes(2)
		ep1, err := tcpnet.Listen(1, book[1], book, tcpnet.Options{Hello: &h1})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = ep1.Close() }()
		ep2, err := tcpnet.Listen(2, book[2], book, tcpnet.Options{Hello: &h2})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = ep2.Close() }()

		var herr *wire.HandshakeError
		if err := ep1.Handshake(2); !errors.As(err, &herr) {
			t.Fatalf("got %v, want *wire.HandshakeError", err)
		}
		if herr.Field != "lanes" || herr.Local != 1 || herr.Remote != 4 {
			t.Fatalf("wrong error detail: %+v", herr)
		}
	})

	t.Run("memnet", func(t *testing.T) {
		net := transport.NewMemNetwork(transport.MemNetworkOptions{})
		cfg1 := mkCfg(1, members)
		ep1, err := net.RegisterSession(cfg1.SessionHello())
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = ep1.Close() }()
		ep2, err := net.RegisterSession(fourLanes(2))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = ep2.Close() }()

		var herr *wire.HandshakeError
		if err := ep1.Handshake(2); !errors.As(err, &herr) {
			t.Fatalf("got %v, want *wire.HandshakeError", err)
		}
		if herr.Field != "lanes" || herr.Local != 1 || herr.Remote != 4 {
			t.Fatalf("wrong error detail: %+v", herr)
		}
	})

	t.Run("membership", func(t *testing.T) {
		net := transport.NewMemNetwork(transport.MemNetworkOptions{})
		cfg1 := mkCfg(1, members)
		cfg2 := mkCfg(2, []wire.ProcessID{1, 2, 3})
		ep1, err := net.RegisterSession(cfg1.SessionHello())
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = ep1.Close() }()
		ep2, err := net.RegisterSession(cfg2.SessionHello())
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = ep2.Close() }()

		var herr *wire.HandshakeError
		if err := ep1.Handshake(2); !errors.As(err, &herr) {
			t.Fatalf("got %v, want *wire.HandshakeError", err)
		}
		if herr.Field != "membership" {
			t.Fatalf("wrong field: %+v", herr)
		}
	})
}

// TestStrayLaneByteDropped covers the guard on the frame header's lane
// byte, input from outside the process: a ring frame with a nonzero
// lane byte is counted and dropped, not delivered to the lane, and the
// server keeps serving. Both kinds of sender are covered: a raw
// endpoint no handshake validated, and a session peer that passed the
// handshake asserting one lane yet writes a stray lane byte.
func TestStrayLaneByteDropped(t *testing.T) {
	members := []wire.ProcessID{1}
	for _, tc := range []struct {
		name string
		// start runs a one-server ring and returns it, the
		// rogue endpoint (id 9) and a client of the ring.
		start func(t *testing.T) (*core.Server, transport.Endpoint, *client.Client)
	}{
		{"raw memnet", func(t *testing.T) (*core.Server, transport.Endpoint, *client.Client) {
			net := transport.NewMemNetwork(transport.MemNetworkOptions{})
			ep, err := net.Register(1)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = ep.Close() })
			srv, err := core.NewServer(core.Config{ID: 1, Members: members}, ep)
			if err != nil {
				t.Fatal(err)
			}
			srv.Start()
			t.Cleanup(srv.Stop)
			rogue, err := net.Register(9)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = rogue.Close() })
			clEP, err := net.Register(100)
			if err != nil {
				t.Fatal(err)
			}
			cl, err := client.New(clEP, client.Options{Servers: members, AttemptTimeout: 5 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = cl.Close(); _ = clEP.Close() })
			return srv, rogue, cl
		}},
		{"session tcp", func(t *testing.T) (*core.Server, transport.Endpoint, *client.Client) {
			c, servers := newSessionTCPCluster(t, 1)
			rogue := tcpnet.NewClient(9, c.book, tcpnet.Options{Hello: &wire.Hello{
				Version:        wire.HelloVersion,
				From:           9,
				Lanes:          core.DefaultWriteLanes,
				MembershipHash: wire.MembershipHash(c.members),
			}})
			t.Cleanup(func() { _ = rogue.Close() })
			if err := rogue.Handshake(1); err != nil {
				t.Fatalf("matched peer failed the handshake: %v", err)
			}
			return servers[0], rogue, c.newSessionClient(5 * time.Second)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, rogue, cl := tc.start(t)
			// The frame header names lane 5 of a one-lane server.
			stray := wire.Frame{Env: wire.Envelope{
				Kind: wire.KindPreWrite, Object: 3, Origin: 9,
				Tag: tag.Tag{TS: 1, ID: 9}, Value: []byte("stray"),
			}, Lane: 5}
			if err := rogue.Send(1, stray); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for srv.CounterSnapshot().LaneDrops == 0 {
				if time.Now().After(deadline) {
					t.Fatal("stray-lane frame was never counted as dropped")
				}
				time.Sleep(time.Millisecond)
			}
			// Delivered to a lane, the pre-write would be forwarded
			// around the ring; dropped, it leaves no ring frame behind.
			time.Sleep(20 * time.Millisecond)
			if snap := srv.CounterSnapshot(); snap.LaneDrops != 1 || snap.RingFrames != 0 {
				t.Fatalf("after the stray frame: LaneDrops %d, RingFrames %d; want 1 and 0",
					snap.LaneDrops, snap.RingFrames)
			}

			// The server is unharmed: a real client round trip still works.
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if _, err := cl.Write(ctx, 3, []byte("healthy")); err != nil {
				t.Fatalf("write after stray frame: %v", err)
			}
			v, _, err := cl.Read(ctx, 3)
			if err != nil || string(v) != "healthy" {
				t.Fatalf("read %q (%v), want healthy", v, err)
			}
		})
	}
}
