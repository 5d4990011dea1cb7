package core_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/checker"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/wal"
	"repro/internal/wire"
)

// walMod configures every server of a test cluster with a write-ahead
// log under base (one subdirectory per server).
func walMod(base string) configMod {
	return func(c *core.Config) {
		c.WAL = wal.Config{Dir: filepath.Join(base, fmt.Sprintf("server-%d", c.ID))}
	}
}

// killAll crashes the whole cluster at once: the full-membership
// restart the durability guarantee is scoped to.
func (c *cluster) killAll() {
	c.t.Helper()
	for id := range c.servers {
		srv := c.servers[id]
		delete(c.servers, id)
		ep := c.eps[id]
		delete(c.eps, id)
		srv.Kill()
		_ = ep.Close()
	}
}

// TestAckedWriteDurableAfterKill is the core durability contract in
// train mode: the moment a write is acknowledged, killing every server
// — dropping whatever the group commit had staged but not synced — and
// restarting the cluster from the log files alone must still serve the
// write at every server. No graceful flush is involved anywhere.
func TestAckedWriteDurableAfterKill(t *testing.T) {
	base := t.TempDir()
	ctx := ctxT(t)

	c := newCluster(t, 3, walMod(base))
	cl := c.newClient(client.Options{})
	const writes = 20
	tags := make(map[int]string) // object -> value of last acked write
	for i := 0; i < writes; i++ {
		obj := i % 4
		v := fmt.Sprintf("durable-%d", i)
		if _, err := cl.Write(ctx, wire.ObjectID(obj), []byte(v)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		tags[obj] = v
	}
	c.killAll()

	re := newCluster(t, 3, walMod(base))
	for i := 1; i <= 3; i++ {
		pinned := re.pinnedClient(wire.ProcessID(i))
		for obj, want := range tags {
			got, _, err := pinned.Read(ctx, wire.ObjectID(obj))
			if err != nil {
				t.Fatalf("server %d read obj %d: %v", i, obj, err)
			}
			if string(got) != want {
				t.Fatalf("server %d obj %d: %q after restart, want %q", i, obj, got, want)
			}
		}
		if st := re.servers[wire.ProcessID(i)].WALStats(); st.Replayed == 0 {
			t.Fatalf("server %d replayed no WAL records", i)
		}
	}
}

// TestAckedWriteDurableAfterKillEncodedEgress re-runs the durability
// contract over the egress that ships (DESIGN.md §14): session endpoints
// on loopback TCP, every frame encoded at enqueue time into pooled
// refcounted buffers. The WAL send gate runs strictly before Send, so
// no encoded byte of a gated train may exist before its covering
// fdatasync; killing every server mid-stream must neither lose an acked
// write nor strand a pooled encode buffer.
func TestAckedWriteDurableAfterKillEncodedEgress(t *testing.T) {
	liveBase := wire.EncodedFramesLive()
	// The subtest's cleanups close every client and endpoint, so when it
	// returns all queues have drained.
	t.Run("killRestart", func(t *testing.T) {
		base := t.TempDir()
		ctx := ctxT(t)

		c, servers := newSessionTCPCluster(t, 3, walMod(base))
		cl := c.newSessionClient(0)
		const writes = 20
		tags := make(map[int]string)
		for i := 0; i < writes; i++ {
			obj := i % 4
			v := fmt.Sprintf("durable-enc-%d", i)
			if _, err := cl.Write(ctx, wire.ObjectID(obj), []byte(v)); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
			tags[obj] = v
		}
		for _, srv := range servers {
			id := srv.ID()
			delete(c.servers, id)
			srv.Kill()
			_ = c.eps[id].Close()
		}

		re, _ := newSessionTCPCluster(t, 3, walMod(base))
		for _, id := range re.members {
			pinned := re.pinnedSessionClient(id)
			for obj, want := range tags {
				got, _, err := pinned.Read(ctx, wire.ObjectID(obj))
				if err != nil {
					t.Fatalf("server %d read obj %d: %v", id, obj, err)
				}
				if string(got) != want {
					t.Fatalf("server %d obj %d: %q after restart, want %q", id, obj, got, want)
				}
			}
		}
	})
	// Every pooled encode buffer must be back: the killed cluster's
	// queues drained on close, the restarted one's on shutdown.
	deadline := time.Now().Add(5 * time.Second)
	for wire.EncodedFramesLive() != liveBase && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := wire.EncodedFramesLive(); got != liveBase {
		t.Fatalf("encoded frames leaked across kill/restart: live = %d, started at %d", got, liveBase)
	}
}

// TestRestartFromWALMidStormLinearizable kills the whole cluster in the
// middle of a concurrent write storm and restarts it from the WAL
// files alone. The combined per-object history — acked and in-flight
// writes before the kill, reads after the restart — must stay atomic:
// every acknowledged write survives with its tag, and interrupted
// writes either landed whole or not at all. Ack send failures are NOT
// asserted zero here: a restarted server re-acks completed writes to
// clients that are long gone, by design.
func TestRestartFromWALMidStormLinearizable(t *testing.T) {
	const objects = 4
	base := t.TempDir()
	ctx := ctxT(t)

	c := newCluster(t, 3, walMod(base))
	var recs [objects]opRecorder
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2*objects; w++ {
		obj := w % objects
		cl := c.newClient(client.Options{
			AttemptTimeout: 300 * time.Millisecond,
			MaxAttempts:    2,
		})
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := fmt.Sprintf("w%d-%d", w, i)
				start := time.Now().UnixNano()
				tg, err := cl.Write(ctx, wire.ObjectID(obj), []byte(v))
				if err != nil {
					// The kill may have eaten the ack of a write that
					// committed; an incomplete op constrains the checker
					// to "either took effect or did not".
					recs[obj].add(checker.Op{Kind: checker.KindWrite, Value: v, Start: start, Incomplete: true})
					return
				}
				recs[obj].add(checker.Op{Kind: checker.KindWrite, Value: v, Start: start, End: time.Now().UnixNano(), Tag: tg})
			}
		}(w)
	}
	time.Sleep(150 * time.Millisecond) // let the storm build
	c.killAll()
	close(stop)
	wg.Wait()

	re := newCluster(t, 3, walMod(base))
	for i := 1; i <= 3; i++ {
		pinned := re.pinnedClient(wire.ProcessID(i))
		for obj := 0; obj < objects; obj++ {
			start := time.Now().UnixNano()
			v, tg, err := pinned.Read(ctx, wire.ObjectID(obj))
			if err != nil {
				t.Fatalf("server %d read obj %d after restart: %v", i, obj, err)
			}
			recs[obj].add(checker.Op{Kind: checker.KindRead, Value: string(v), Start: start, End: time.Now().UnixNano(), Tag: tg})
		}
	}
	for obj := range recs {
		if err := checker.CheckTagged(recs[obj].history()); err != nil {
			t.Fatalf("object %d history not atomic across restart: %v", obj, err)
		}
	}
}

// TestGracefulRestartNoTornTails asserts the happy path leaves a clean
// log: a graceful Stop flushes and syncs every lane, so the next open
// repairs nothing (WALTornTails == 0) while still replaying state.
func TestGracefulRestartNoTornTails(t *testing.T) {
	base := t.TempDir()
	ctx := ctxT(t)

	c := newCluster(t, 3, walMod(base))
	cl := c.newClient(client.Options{})
	for i := 0; i < 10; i++ {
		if _, err := cl.Write(ctx, wire.ObjectID(i%2), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for i := 1; i <= 3; i++ {
		if torn := c.servers[wire.ProcessID(i)].CounterSnapshot().WALTornTails; torn != 0 {
			t.Fatalf("server %d repaired %d torn tails on a fresh log", i, torn)
		}
	}
	c.shutdown() // graceful Stop on every server

	re := newCluster(t, 3, walMod(base))
	for i := 1; i <= 3; i++ {
		st := re.servers[wire.ProcessID(i)].WALStats()
		if st.TornTails != 0 {
			t.Fatalf("server %d: %d torn tails after graceful stop", i, st.TornTails)
		}
		if st.Replayed == 0 {
			t.Fatalf("server %d replayed nothing", i)
		}
	}
	got, _, err := re.newClient(client.Options{}).Read(ctx, 1)
	if err != nil {
		t.Fatalf("read after graceful restart: %v", err)
	}
	if string(got) != "v9" {
		t.Fatalf("read %q after graceful restart, want %q", got, "v9")
	}
}

// TestRecoveryReplaysBeforeAdoption pins the recovery ordering: WAL
// replay happens inside NewServer — before Start spins up lanes, the
// control plane, or any crash fan-out — so a restarted server's state
// is rebuilt strictly before ring adoption traffic can touch it. The
// server is inspected between NewServer and Start to prove it.
func TestRecoveryReplaysBeforeAdoption(t *testing.T) {
	base := t.TempDir()
	ctx := ctxT(t)

	c := newCluster(t, 3, walMod(base))
	cl := c.newClient(client.Options{})
	if _, err := cl.Write(ctx, 0, []byte("pre-crash")); err != nil {
		t.Fatalf("write: %v", err)
	}
	c.killAll()

	// Rebuild server 1 by hand — killAll removed id 1 from the network,
	// so re-registering it is allowed — and do NOT Start it yet.
	cfg := core.Config{ID: 1, Members: c.members}
	walMod(base)(&cfg)
	ep, err := c.net.RegisterSession(cfg.SessionHello())
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	defer func() { _ = ep.Close() }()
	srv, err := core.NewServer(cfg, ep)
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	defer srv.Stop()
	if st := srv.WALStats(); st.Replayed == 0 {
		t.Fatal("NewServer returned with no records replayed: recovery did not precede startup")
	}
}

// TestFourLaneWALReplaysIntoOneLane is the upgrade path: a WAL written
// by servers that still sharded their ring over four lanes replays into
// today's one lane. The lane count was never part of the on-disk
// format; each object's records came from one lane, in that lane's
// order, interleaved with the other lanes' records in the one segment
// sequence.
//
// testdata/wal-four-lanes was generated by a build that still had
// Config.WriteLanes: a 3-server memnet cluster (newCluster with
// WriteLanes 4 and walMod), eight concurrent clients each writing
// "o<obj>-r0".."o<obj>-r4" sequentially to objects 0..7 (which spread
// over all four lanes by that build's placement.LaneOf), then server 3
// crashed with Kill and servers 1 and 2 killed too. Each segment was
// then cut back to its last record, as wal.Open does, so the fixture
// holds no zero-filled run.
func TestFourLaneWALReplaysIntoOneLane(t *testing.T) {
	// The last acked write of every object.
	want := map[wire.ObjectID]string{
		0: "o0-r4", 1: "o1-r4", 2: "o2-r4", 3: "o3-r4",
		4: "o4-r4", 5: "o5-r4", 6: "o6-r4", 7: "o7-r4",
	}
	base := t.TempDir()
	if err := os.CopyFS(base, os.DirFS(filepath.Join("testdata", "wal-four-lanes"))); err != nil {
		t.Fatal(err)
	}
	verified := make(map[wire.ProcessID]wal.VerifyResult)
	for id := wire.ProcessID(1); id <= 3; id++ {
		res, err := wal.Verify(filepath.Join(base, fmt.Sprintf("server-%d", id)))
		if err != nil {
			t.Fatalf("server %d: Verify rejects the four-lane log: %v", id, err)
		}
		if res.Records == 0 {
			t.Fatalf("server %d: fixture holds no records", id)
		}
		verified[id] = res
	}

	ctx := ctxT(t)
	re := newCluster(t, 3, walMod(base))
	for id, res := range verified {
		st := re.servers[id].WALStats()
		if st.Replayed != res.Records {
			t.Fatalf("server %d replayed %d records, the fixture holds %d", id, st.Replayed, res.Records)
		}
		wantTorn := uint64(0)
		if res.TornTail {
			wantTorn = 1
		}
		if got := re.servers[id].WALTornTails(); got != wantTorn {
			t.Fatalf("server %d: WALTornTails = %d, fixture torn tail %v", id, got, res.TornTail)
		}
		pinned := re.pinnedClient(id)
		for obj, v := range want {
			got, _, err := pinned.Read(ctx, obj)
			if err != nil {
				t.Fatalf("server %d read obj %d: %v", id, obj, err)
			}
			if string(got) != v {
				t.Fatalf("server %d obj %d: %q after replay, want %q", id, obj, got, v)
			}
		}
	}
}
