package core_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checker"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/wire"
)

// cluster is an in-memory test deployment: n servers on a MemNetwork.
type cluster struct {
	t       *testing.T
	net     *transport.MemNetwork
	members []wire.ProcessID
	servers map[wire.ProcessID]*core.Server
	eps     map[wire.ProcessID]*transport.MemEndpoint

	mu         sync.Mutex
	nextClient wire.ProcessID
}

// configMod tweaks the per-server configuration before start.
type configMod func(*core.Config)

// assertCleanCounters takes one CounterSnapshot and fails on the
// robustness invariants no test run should ever violate: recovery
// buffer leaks (forbidden always) and lane-fanout drops (forbidden
// unless a test deliberately mixes WriteLanes capabilities). Tests with
// fault-specific expectations (ack failures under stalls, torn WAL
// tails after kills) layer their own checks on the same snapshot.
func assertCleanCounters(t *testing.T, id wire.ProcessID, srv *core.Server) {
	t.Helper()
	snap := srv.CounterSnapshot()
	if snap.RecoveryBufferLeaks != 0 {
		t.Errorf("server %d RecoveryBufferLeaks = %d, want 0", id, snap.RecoveryBufferLeaks)
	}
	if snap.LaneDrops != 0 {
		t.Errorf("server %d LaneDrops = %d, want 0", id, snap.LaneDrops)
	}
}

// newCluster starts servers 1..n on a fresh in-memory network.
func newCluster(t *testing.T, n int, mods ...configMod) *cluster {
	t.Helper()
	c := &cluster{
		t:          t,
		net:        transport.NewMemNetwork(transport.MemNetworkOptions{}),
		servers:    make(map[wire.ProcessID]*core.Server),
		eps:        make(map[wire.ProcessID]*transport.MemEndpoint),
		nextClient: 1000,
	}
	for i := 1; i <= n; i++ {
		c.members = append(c.members, wire.ProcessID(i))
	}
	for _, id := range c.members {
		cfg := core.Config{ID: id, Members: c.members}
		for _, mod := range mods {
			mod(&cfg)
		}
		// Session endpoints, as real deployments use: servers negotiate
		// per-lane links among themselves.
		ep, err := c.net.RegisterSession(cfg.SessionHello())
		if err != nil {
			t.Fatalf("register server %d: %v", id, err)
		}
		srv, err := core.NewServer(cfg, ep)
		if err != nil {
			t.Fatalf("new server %d: %v", id, err)
		}
		srv.Start()
		c.servers[id] = srv
		c.eps[id] = ep
	}
	t.Cleanup(c.shutdown)
	return c
}

// shutdown stops every remaining server.
func (c *cluster) shutdown() {
	for id, srv := range c.servers {
		srv.Stop()
		_ = c.eps[id].Close()
	}
}

// crash kills one server: failure notifications reach all survivors.
func (c *cluster) crash(id wire.ProcessID) {
	c.t.Helper()
	srv, ok := c.servers[id]
	if !ok {
		c.t.Fatalf("crash of unknown server %d", id)
	}
	delete(c.servers, id)
	delete(c.eps, id)
	c.net.Crash(id)
	srv.Stop()
}

// clientHello is the lane-unaware HELLO a client of this cluster asserts.
func (c *cluster) clientHello(id wire.ProcessID) wire.Hello {
	return wire.Hello{
		Version:        wire.HelloVersion,
		From:           id,
		Link:           wire.LinkGeneral,
		MembershipHash: wire.MembershipHash(c.members),
	}
}

// newClient returns a started client over the same network.
func (c *cluster) newClient(opts client.Options) *client.Client {
	c.t.Helper()
	c.mu.Lock()
	c.nextClient++
	id := c.nextClient
	c.mu.Unlock()
	ep, err := c.net.RegisterSession(c.clientHello(id))
	if err != nil {
		c.t.Fatalf("register client: %v", err)
	}
	if opts.Servers == nil {
		opts.Servers = append([]wire.ProcessID(nil), c.members...)
	}
	if opts.AttemptTimeout == 0 {
		opts.AttemptTimeout = 5 * time.Second
	}
	cl, err := client.New(ep, opts)
	if err != nil {
		c.t.Fatalf("new client: %v", err)
	}
	c.t.Cleanup(func() {
		_ = cl.Close()
		_ = ep.Close()
	})
	return cl
}

// pinnedClient returns a client that always contacts one given server.
func (c *cluster) pinnedClient(server wire.ProcessID) *client.Client {
	return c.newClient(client.Options{
		Servers: []wire.ProcessID{server},
		Policy:  client.PolicyPinned,
	})
}

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestWriteThenRead(t *testing.T) {
	c := newCluster(t, 3)
	cl := c.newClient(client.Options{})
	ctx := ctxT(t)

	wtag, err := cl.Write(ctx, 0, []byte("hello"))
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if wtag.IsZero() {
		t.Fatal("write acked with zero tag")
	}
	got, rtag, err := cl.Read(ctx, 0)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if string(got) != "hello" {
		t.Fatalf("read %q, want %q", got, "hello")
	}
	if rtag != wtag {
		t.Fatalf("read tag %s, want %s", rtag, wtag)
	}
	assertNoAckFailures(t, c)
}

func TestReadUnwrittenObject(t *testing.T) {
	c := newCluster(t, 2)
	cl := c.newClient(client.Options{})
	got, rtag, err := cl.Read(ctxT(t), 7)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(got) != 0 || !rtag.IsZero() {
		t.Fatalf("unwritten object returned %q tag %s", got, rtag)
	}
}

// TestWriteVisibleAtEveryServer exercises the write-all-available
// guarantee: once the writer is acknowledged, *every* server must serve
// the new value to a local read — no quorums involved.
func TestWriteVisibleAtEveryServer(t *testing.T) {
	const n = 5
	c := newCluster(t, n)
	ctx := ctxT(t)
	w := c.newClient(client.Options{})
	if _, err := w.Write(ctx, 0, []byte("everywhere")); err != nil {
		t.Fatalf("write: %v", err)
	}
	for i := 1; i <= n; i++ {
		cl := c.pinnedClient(wire.ProcessID(i))
		got, _, err := cl.Read(ctx, 0)
		if err != nil {
			t.Fatalf("read at server %d: %v", i, err)
		}
		if string(got) != "everywhere" {
			t.Fatalf("server %d returned %q", i, got)
		}
	}
	assertNoAckFailures(t, c)
}

func TestSingleServerCluster(t *testing.T) {
	c := newCluster(t, 1)
	cl := c.newClient(client.Options{})
	ctx := ctxT(t)
	if _, err := cl.Write(ctx, 0, []byte("solo")); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, _, err := cl.Read(ctx, 0)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if string(got) != "solo" {
		t.Fatalf("read %q", got)
	}
}

func TestSequentialWritesMonotonicTags(t *testing.T) {
	c := newCluster(t, 3)
	cl := c.newClient(client.Options{})
	ctx := ctxT(t)
	prev, err := cl.Write(ctx, 0, []byte("v0"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 20; i++ {
		cur, err := cl.Write(ctx, 0, []byte(fmt.Sprintf("v%d", i)))
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if !cur.After(prev) {
			t.Fatalf("tag %s of write %d does not supersede %s", cur, i, prev)
		}
		prev = cur
	}
}

func TestMultiObjectIndependence(t *testing.T) {
	c := newCluster(t, 3)
	cl := c.newClient(client.Options{})
	ctx := ctxT(t)
	const objects = 8
	for i := 0; i < objects; i++ {
		if _, err := cl.Write(ctx, wire.ObjectID(i), []byte(fmt.Sprintf("obj-%d", i))); err != nil {
			t.Fatalf("write obj %d: %v", i, err)
		}
	}
	for i := 0; i < objects; i++ {
		got, _, err := cl.Read(ctx, wire.ObjectID(i))
		if err != nil {
			t.Fatalf("read obj %d: %v", i, err)
		}
		if string(got) != fmt.Sprintf("obj-%d", i) {
			t.Fatalf("obj %d holds %q", i, got)
		}
	}
}

func TestConcurrentWritersUniqueTags(t *testing.T) {
	const writers, perWriter = 6, 10
	c := newCluster(t, 4)
	ctx := ctxT(t)
	var mu sync.Mutex
	seen := make(map[string]string) // tag -> value
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		cl := c.newClient(client.Options{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				v := fmt.Sprintf("w%d-%d", w, i)
				tg, err := cl.Write(ctx, 0, []byte(v))
				if err != nil {
					t.Errorf("writer %d op %d: %v", w, i, err)
					return
				}
				mu.Lock()
				if prev, dup := seen[tg.String()]; dup {
					t.Errorf("tag %s assigned to both %q and %q", tg, prev, v)
				}
				seen[tg.String()] = v
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != writers*perWriter && !t.Failed() {
		t.Fatalf("expected %d distinct tags, got %d", writers*perWriter, len(seen))
	}
}

// opRecorder collects a concurrent history for the linearizability
// checkers.
type opRecorder struct {
	mu   sync.Mutex
	ops  []checker.Op
	next int64
}

func (r *opRecorder) add(op checker.Op) {
	r.mu.Lock()
	defer r.mu.Unlock()
	op.ID = int(r.next)
	r.next++
	r.ops = append(r.ops, op)
}

func (r *opRecorder) history() []checker.Op {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]checker.Op(nil), r.ops...)
}

// runMixedWorkload drives concurrent readers and writers and returns the
// recorded history. Write values are globally unique.
func runMixedWorkload(t *testing.T, c *cluster, writers, readers, opsPer int) []checker.Op {
	t.Helper()
	ctx := ctxT(t)
	rec := &opRecorder{}
	var wg sync.WaitGroup
	var seq atomic.Int64
	for w := 0; w < writers; w++ {
		cl := c.newClient(client.Options{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				v := fmt.Sprintf("u%d", seq.Add(1))
				start := time.Now().UnixNano()
				tg, err := cl.Write(ctx, 0, []byte(v))
				end := time.Now().UnixNano()
				if err != nil {
					rec.add(checker.Op{Kind: checker.KindWrite, Value: v, Start: start, Incomplete: true})
					continue
				}
				rec.add(checker.Op{Kind: checker.KindWrite, Value: v, Start: start, End: end, Tag: tg})
			}
		}()
	}
	for r := 0; r < readers; r++ {
		cl := c.newClient(client.Options{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				start := time.Now().UnixNano()
				v, tg, err := cl.Read(ctx, 0)
				end := time.Now().UnixNano()
				if err != nil {
					continue // unanswered reads constrain nothing
				}
				rec.add(checker.Op{Kind: checker.KindRead, Value: string(v), Start: start, End: end, Tag: tg})
			}
		}()
	}
	wg.Wait()
	return rec.history()
}

func TestLinearizabilityStress(t *testing.T) {
	c := newCluster(t, 4)
	h := runMixedWorkload(t, c, 4, 6, 40)
	if err := checker.CheckTagged(h); err != nil {
		t.Fatalf("history not atomic: %v", err)
	}
}

func TestLinearizabilityStressBlackBoxSample(t *testing.T) {
	// A small window validated by the exhaustive black-box checker.
	c := newCluster(t, 3)
	h := runMixedWorkload(t, c, 2, 2, 8)
	if err := checker.CheckTagged(h); err != nil {
		t.Fatalf("history not atomic (tagged): %v", err)
	}
	if len(h) > 60 {
		h = h[:60]
	}
	if err := checker.CheckLinearizable(h); err != nil {
		t.Fatalf("history not atomic (black-box): %v", err)
	}
}

func TestLinearizabilityStressVariants(t *testing.T) {
	variants := []struct {
		name string
		mod  configMod
	}{
		{"no_piggyback", func(c *core.Config) { c.DisablePiggyback = true }},
		{"no_elision", func(c *core.Config) { c.DisableValueElision = true }},
		{"no_fairness", func(c *core.Config) { c.DisableFairness = true }},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			c := newCluster(t, 3, v.mod)
			h := runMixedWorkload(t, c, 3, 3, 25)
			if err := checker.CheckTagged(h); err != nil {
				t.Fatalf("history not atomic: %v", err)
			}
		})
	}
}

func TestManyObjectsConcurrently(t *testing.T) {
	c := newCluster(t, 3)
	ctx := ctxT(t)
	const objects = 16
	var wg sync.WaitGroup
	for o := 0; o < objects; o++ {
		o := o
		cl := c.newClient(client.Options{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				v := fmt.Sprintf("o%d-i%d", o, i)
				if _, err := cl.Write(ctx, wire.ObjectID(o), []byte(v)); err != nil {
					t.Errorf("obj %d write %d: %v", o, i, err)
					return
				}
			}
			got, _, err := cl.Read(ctx, wire.ObjectID(o))
			if err != nil {
				t.Errorf("obj %d read: %v", o, err)
				return
			}
			want := fmt.Sprintf("o%d-i9", o)
			if string(got) != want {
				t.Errorf("obj %d holds %q, want %q", o, got, want)
			}
		}()
	}
	wg.Wait()
}

// TestLaneConfigurations drives a mixed multi-object workload — one
// writer and two concurrent readers per object — under the lane
// fanout's extremes (single lane, more lanes than objects) and at a
// lane count that is not a power of two, and checks every object's
// history stays atomic. With -race this asserts the lane concurrency
// contract: lanes, the delivering goroutines' snapshot reads, the ack
// sender, and the control plane may only meet through published
// snapshots, the lanes' copy-on-write object tables, and channels.
func TestLaneConfigurations(t *testing.T) {
	firstSix := []wire.ObjectID{0, 1, 2, 3, 4, 5}
	for _, tc := range []struct {
		name    string
		lanes   int
		objects []wire.ObjectID
	}{
		{"singleLane", -1, firstSix},
		{"fourLanes", 4, firstSix},
		{"moreLanesThanObjects", 16, firstSix},
		{"threeLanes", 3, firstSix},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, 3, func(c *core.Config) { c.WriteLanes = tc.lanes })
			ctx := ctxT(t)
			recs := make([]opRecorder, len(tc.objects))
			var wg sync.WaitGroup
			for i, obj := range tc.objects {
				rec := &recs[i]
				wcl := c.newClient(client.Options{})
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 8; i++ {
						v := fmt.Sprintf("o%d-%d", obj, i)
						start := time.Now().UnixNano()
						tg, err := wcl.Write(ctx, obj, []byte(v))
						if err != nil {
							t.Errorf("write: %v", err)
							return
						}
						rec.add(checker.Op{Kind: checker.KindWrite, Value: v, Start: start, End: time.Now().UnixNano(), Tag: tg})
					}
				}()
				for r := 0; r < 2; r++ {
					rcl := c.newClient(client.Options{})
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < 8; i++ {
							start := time.Now().UnixNano()
							v, tg, err := rcl.Read(ctx, obj)
							if err != nil {
								t.Errorf("read: %v", err)
								return
							}
							rec.add(checker.Op{Kind: checker.KindRead, Value: string(v), Start: start, End: time.Now().UnixNano(), Tag: tg})
						}
					}()
				}
			}
			wg.Wait()
			for i, obj := range tc.objects {
				if err := checker.CheckTagged(recs[i].history()); err != nil {
					t.Fatalf("object %d history not atomic: %v", obj, err)
				}
			}
		})
	}
}
