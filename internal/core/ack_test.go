package core_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/checker"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/wire"
)

// assertNoAckFailures checks every live server dropped zero client
// acks — the happy-path invariant behind Server.AckSendFailures — along
// with the unconditional counter invariants, all from one snapshot.
func assertNoAckFailures(t *testing.T, c *cluster) {
	t.Helper()
	for id, srv := range c.servers {
		if n := srv.CounterSnapshot().AckSendFailures; n != 0 {
			t.Errorf("server %d dropped %d acks", id, n)
		}
		assertCleanCounters(t, id, srv)
	}
}

// TestAckPathHappyPath runs a mixed workload and pins the ack-path
// bookkeeping: no server drops an ack, and with sharding on (the
// default) the acks demonstrably flowed through the sharded sender.
func TestAckPathHappyPath(t *testing.T) {
	c := newCluster(t, 3)
	h := runMixedWorkload(t, c, 3, 3, 20)
	if err := checker.CheckTagged(h); err != nil {
		t.Fatalf("history not atomic: %v", err)
	}
	assertNoAckFailures(t, c)
	var total uint64
	for _, srv := range c.servers {
		snap := srv.CounterSnapshot()
		total += snap.AckFastPath + snap.AckQueued
	}
	if total == 0 {
		t.Fatal("no acks flowed through the sharded sender")
	}
}

// TestSlowClientIsolation is the property this PR's tentpole exists
// for: a client that stops draining its connection must wedge only its
// own ack lane, never acks bound for other clients. The stalled client
// floods read requests without ever reading an ack; its inbox (memnet,
// capacity 64) fills, the transport fast path starts
// refusing, and its lane's drain goroutine blocks inside Send. A
// healthy client pinned to the same server must keep completing
// operations — with the old single shared ackLoop this exact scenario
// deadlocked every client of the server.
func TestSlowClientIsolation(t *testing.T) {
	c := newCluster(t, 1)
	ctx := ctxT(t)
	healthy := c.pinnedClient(1)
	if _, err := healthy.Write(ctx, 5, []byte("v")); err != nil {
		t.Fatalf("seed write: %v", err)
	}

	stalled, err := c.net.RegisterSession(c.clientHello(2000))
	if err != nil {
		t.Fatalf("register stalled client: %v", err)
	}
	// Flood well past the stalled client's inbox capacity. Each request
	// produces a read ack it will never consume; the surplus piles up
	// in its private ack lane.
	const flood = 3 * transport.DefaultInboxCapacity
	for i := 0; i < flood; i++ {
		env := wire.Envelope{Kind: wire.KindReadRequest, Object: 5, ReqID: uint64(i + 1)}
		if err := stalled.Send(1, wire.NewFrame(env)); err != nil {
			t.Fatalf("stalled client send %d: %v", i, err)
		}
	}

	// The healthy client's operations must complete while the stalled
	// client's lane is wedged. ctxT's deadline turns a regression into
	// a failure rather than a hang.
	for i := 0; i < 20; i++ {
		v := fmt.Sprintf("alive-%d", i)
		if _, err := healthy.Write(ctx, 5, []byte(v)); err != nil {
			t.Fatalf("healthy write %d while peer stalled: %v", i, err)
		}
		got, _, err := healthy.Read(ctx, 5)
		if err != nil {
			t.Fatalf("healthy read %d while peer stalled: %v", i, err)
		}
		if string(got) != v {
			t.Fatalf("healthy read %d = %q, want %q", i, got, v)
		}
	}

	// Unwedge the stalled lane before teardown: closing the endpoint
	// fails the blocked Send (ErrPeerDown), freeing the drain goroutine
	// so Server.Stop can join it. Those failures are real and counted.
	_ = stalled.Close()
	deadline := time.Now().Add(5 * time.Second)
	for c.servers[1].CounterSnapshot().AckSendFailures == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalled client's surplus acks never surfaced as counted failures")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAckTeardownUnderTraffic stops servers while clients still have
// operations in flight; run with -race it pins the concurrent drain
// teardown (lazily created ack lanes vs Stop) and the rule that
// post-stop enqueues from transport delivering goroutines are dropped,
// not raced.
func TestAckTeardownUnderTraffic(t *testing.T) {
	for round := 0; round < 5; round++ {
		c := newCluster(t, 3)
		ctx := ctxT(t)
		done := make(chan struct{})
		for g := 0; g < 4; g++ {
			cl := c.newClient(client.Options{AttemptTimeout: 200 * time.Millisecond, MaxAttempts: 1})
			go func(g int) {
				for i := 0; ; i++ {
					select {
					case <-done:
						return
					default:
					}
					// Errors are expected once teardown begins.
					_, _, _ = cl.Read(ctx, wire.ObjectID(g))
					_, _ = cl.Write(ctx, wire.ObjectID(g), []byte{byte(i)})
				}
			}(g)
		}
		time.Sleep(20 * time.Millisecond)
		c.shutdown()
		c.servers = map[wire.ProcessID]*core.Server{} // shutdown already ran
		close(done)
	}
}
