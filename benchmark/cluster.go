package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"syscall"
	"time"

	"repro/atomicstore"
	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/tcpnet"
	"repro/internal/wal"
	"repro/internal/wire"
)

// ring is a 3-server deployment over real loopback TCP, built the way
// atomicstore.Join builds one (tcpnet.Listen + core.NewServer with the
// session HELLO) but holding the core servers, because the benchmark
// needs Kill and CounterSnapshot, which the façade does not expose.
// Every core and tcpnet setting is the product default.
type ring struct {
	members []atomicstore.Member
	ids     []wire.ProcessID
	book    tcpnet.AddressBook
	walDir  string // "" without durability

	servers []*core.Server
	eps     []*tcpnet.Endpoint
}

// startRing reserves ports and starts the servers, retrying the whole
// sequence when a reserved port was taken between reservation and
// listen (the close-then-relisten race).
func startRing(walDir string) (*ring, error) {
	var err error
	for attempt := 0; attempt < 8; attempt++ {
		var r *ring
		if r, err = tryStartRing(walDir); err == nil {
			return r, nil
		}
		if !errors.Is(err, syscall.EADDRINUSE) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("start ring: ports kept colliding: %w", err)
}

func tryStartRing(walDir string) (*ring, error) {
	r := &ring{book: make(tcpnet.AddressBook), walDir: walDir}
	// The address book must be complete before any server dials its
	// successor, so the ports are picked first and released again.
	var holds []net.Listener
	for i := 1; i <= numServers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, h := range holds {
				_ = h.Close()
			}
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		holds = append(holds, ln)
		id := wire.ProcessID(i)
		r.ids = append(r.ids, id)
		r.book[id] = ln.Addr().String()
		r.members = append(r.members, atomicstore.Member{ID: id, Addr: ln.Addr().String()})
	}
	for _, h := range holds {
		_ = h.Close()
	}
	if err := r.startServers(); err != nil {
		r.stop()
		return nil, err
	}
	return r, nil
}

func (r *ring) startServers() error {
	for _, id := range r.ids {
		cfg := core.Config{ID: id, Members: r.ids}
		if r.walDir != "" {
			// Same layout and policy as atomicstore.WithDurability.
			cfg.WAL = wal.Config{
				Dir:  filepath.Join(r.walDir, fmt.Sprintf("server-%d", id)),
				Sync: wal.SyncTrain,
			}
		}
		hello := cfg.SessionHello()
		ep, err := tcpnet.Listen(id, r.book[id], r.book, tcpnet.Options{Hello: &hello})
		if err != nil {
			return err
		}
		srv, err := core.NewServer(cfg, ep)
		if err != nil {
			_ = ep.Close()
			return fmt.Errorf("server %d: %w", id, err)
		}
		srv.Start()
		r.servers = append(r.servers, srv)
		r.eps = append(r.eps, ep)
	}
	return nil
}

// checkRing validates every server's session to its successor, as
// atomicstore.Server.CheckRing does, retrying transient dial errors.
func (r *ring) checkRing() error {
	for i, ep := range r.eps {
		succ := r.ids[(i+1)%len(r.ids)]
		deadline := time.Now().Add(5 * time.Second)
		for {
			err := ep.Handshake(succ)
			if err == nil {
				break
			}
			var herr *wire.HandshakeError
			if errors.As(err, &herr) || time.Now().After(deadline) {
				return fmt.Errorf("check ring %d->%d: %w", r.ids[i], succ, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// dial connects the benchmark's client connections: connection c is
// pinned to server c+1 under the fixed client id base+c.
func (r *ring) dial(idBase int) ([]*atomicstore.Client, error) {
	var clients []*atomicstore.Client
	for c := 0; c < numConns; c++ {
		cl, err := atomicstore.Dial(r.members,
			atomicstore.WithClientID(atomicstore.ServerID(idBase+c)),
			atomicstore.WithPinnedServer(atomicstore.ServerID(c%numServers+1)))
		if err != nil {
			closeClients(clients)
			return nil, fmt.Errorf("dial conn %d: %w", c, err)
		}
		clients = append(clients, cl)
	}
	return clients, nil
}

func closeClients(clients []*atomicstore.Client) {
	for _, cl := range clients {
		_ = cl.Close()
	}
}

// counters sums the robustness counters over the running servers.
func (r *ring) counters() core.CounterSnapshot {
	var sum core.CounterSnapshot
	for _, s := range r.servers {
		c := s.CounterSnapshot()
		sum.LaneDrops += c.LaneDrops
		sum.AckSendFailures += c.AckSendFailures
		sum.RecoveryBufferLeaks += c.RecoveryBufferLeaks
		sum.AckFastPath += c.AckFastPath
		sum.AckQueued += c.AckQueued
		sum.RingFrames += c.RingFrames
		sum.RingEnvelopes += c.RingEnvelopes
	}
	return sum
}

// walStats sums the WAL counters over the running servers; all zero
// without durability.
func (r *ring) walStats() wal.Stats {
	var sum wal.Stats
	for _, s := range r.servers {
		st := s.WALStats()
		sum.Appends += st.Appends
		sum.Syncs += st.Syncs
		sum.SyncBytes += st.SyncBytes
		sum.Replayed += st.Replayed
		sum.TornTails += st.TornTails
		sum.Failed = sum.Failed || st.Failed
	}
	return sum
}

// kill crashes every server: WAL records staged since the last
// covering sync are dropped, so what is left on disk is what a real
// crash at this instant would leave.
func (r *ring) kill() {
	for i, s := range r.servers {
		s.Kill()
		_ = r.eps[i].Close()
	}
	r.servers, r.eps = nil, nil
}

// restart brings the killed ring back over the same addresses and WAL
// directories; every server replays its log inside core.NewServer.
func (r *ring) restart() error {
	if err := r.startServers(); err != nil {
		return err
	}
	return r.checkRing()
}

func (r *ring) stop() {
	for i, s := range r.servers {
		s.Stop()
		_ = r.eps[i].Close()
	}
	r.servers, r.eps = nil, nil
}

// store is a running deployment the load generator can drive: the TCP
// ring, or the in-process memnet cluster of the core probe.
type store struct {
	ring    *ring                // nil for memnet
	mem     *atomicstore.Cluster // nil for TCP
	clients []*atomicstore.Client
	gates   *gates
	setup   time.Duration
	// setupOps[o] is the set-up write of register o, the first
	// operation of its checker history.
	setupOps []checker.Op
}

func (s *store) close() {
	closeClients(s.clients)
	if s.ring != nil {
		s.ring.stop()
	}
	if s.mem != nil {
		_ = s.mem.Close()
	}
}

// setUpTCP is the timed set-up: ports reserved → ring CheckRing ok →
// clients dialled → every object written once.
func setUpTCP(w *workload, walDir string, nonce uint32, clientBase int) (*store, error) {
	start := time.Now()
	r, err := startRing(walDir)
	if err != nil {
		return nil, err
	}
	s := &store{ring: r, gates: newGates(w.objects)}
	if err := r.checkRing(); err != nil {
		s.close()
		return nil, err
	}
	if s.clients, err = r.dial(clientBase); err != nil {
		s.close()
		return nil, err
	}
	if err := s.writeEveryObject(w, nonce); err != nil {
		s.close()
		return nil, err
	}
	s.setup = time.Since(start)
	return s, nil
}

// setUpMem starts the same membership over the in-memory transport:
// core without sockets.
func setUpMem(w *workload, nonce uint32) (*store, error) {
	c, err := atomicstore.StartCluster(numServers)
	if err != nil {
		return nil, err
	}
	s := &store{mem: c, gates: newGates(w.objects)}
	for i := 0; i < numConns; i++ {
		cl, err := c.Client(atomicstore.WithPinnedServer(atomicstore.ServerID(i%numServers + 1)))
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, cl)
	}
	if err := s.writeEveryObject(w, nonce); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// writeEveryObject gives each register its first value, 32 writes in
// flight per connection, and seeds the version gates with the result.
func (s *store) writeEveryObject(w *workload, nonce uint32) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const window = 32
	s.setupOps = make([]checker.Op, w.objects)
	errc := make(chan error, numConns*window)
	for c := range s.clients {
		for k := 0; k < window; k++ {
			go func(c, k int) {
				buf := make([]byte, w.valueBytes)
				for o := c*window + k; o < w.objects; o += numConns * window {
					fillPayload(buf, setupConn, uint32(o), 0, nonce)
					start := now()
					ver, err := s.clients[c].Write(ctx, atomicstore.ObjectID(o), buf)
					if err != nil {
						errc <- fmt.Errorf("set-up write of object %d: %w", o, err)
						return
					}
					s.gates.observe(uint32(o), ver)
					s.setupOps[o] = checker.Op{ID: -1 - o, Kind: checker.KindWrite,
						Value: payloadKey(buf), Start: start, End: now(), Tag: ver}
				}
				errc <- nil
			}(c, k)
		}
	}
	var first error
	for i := 0; i < numConns*window; i++ {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	return first
}
