package core_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/checker"
	"repro/internal/client"
	"repro/internal/wire"
)

func TestCrashMiddleServerThenWrite(t *testing.T) {
	c := newCluster(t, 4)
	ctx := ctxT(t)
	cl := c.newClient(client.Options{Servers: []wire.ProcessID{1}, Policy: client.PolicyPinned})

	if _, err := cl.Write(ctx, 0, []byte("before")); err != nil {
		t.Fatalf("write before crash: %v", err)
	}
	c.crash(2)
	if _, err := cl.Write(ctx, 0, []byte("after")); err != nil {
		t.Fatalf("write after crash: %v", err)
	}
	for _, id := range []wire.ProcessID{1, 3, 4} {
		got, _, err := c.pinnedClient(id).Read(ctx, 0)
		if err != nil {
			t.Fatalf("read at %d: %v", id, err)
		}
		if string(got) != "after" {
			t.Fatalf("server %d returned %q", id, got)
		}
	}
}

func TestCrashSuccessorOfWriterServer(t *testing.T) {
	// Server 1 initiates writes; its successor 2 crashes between writes;
	// 1 must splice the ring and keep completing writes.
	c := newCluster(t, 3)
	ctx := ctxT(t)
	cl := c.newClient(client.Options{Servers: []wire.ProcessID{1}, Policy: client.PolicyPinned})
	if _, err := cl.Write(ctx, 0, []byte("w1")); err != nil {
		t.Fatalf("w1: %v", err)
	}
	c.crash(2)
	if _, err := cl.Write(ctx, 0, []byte("w2")); err != nil {
		t.Fatalf("w2 after successor crash: %v", err)
	}
	got, _, err := c.pinnedClient(3).Read(ctx, 0)
	if err != nil {
		t.Fatalf("read at 3: %v", err)
	}
	if string(got) != "w2" {
		t.Fatalf("server 3 returned %q", got)
	}
}

func TestCascadeToSingleSurvivor(t *testing.T) {
	c := newCluster(t, 4)
	ctx := ctxT(t)
	survivor := wire.ProcessID(3)
	cl := c.pinnedClient(survivor)

	if _, err := cl.Write(ctx, 0, []byte("v0")); err != nil {
		t.Fatalf("initial write: %v", err)
	}
	for i, id := range []wire.ProcessID{1, 2, 4} {
		c.crash(id)
		v := fmt.Sprintf("v%d", i+1)
		if _, err := cl.Write(ctx, 0, []byte(v)); err != nil {
			t.Fatalf("write %q after crashing %d: %v", v, id, err)
		}
		got, _, err := cl.Read(ctx, 0)
		if err != nil {
			t.Fatalf("read after crashing %d: %v", id, err)
		}
		if string(got) != v {
			t.Fatalf("read %q, want %q", got, v)
		}
	}
}

func TestClientFailsOverFromCrashedServer(t *testing.T) {
	c := newCluster(t, 3)
	ctx := ctxT(t)
	// The client prefers server 2 but may fall back to the others.
	cl := c.newClient(client.Options{
		Servers:        []wire.ProcessID{2, 1, 3},
		Policy:         client.PolicyPinned,
		AttemptTimeout: 300 * time.Millisecond,
	})
	if _, err := cl.Write(ctx, 0, []byte("pre")); err != nil {
		t.Fatalf("write: %v", err)
	}
	c.crash(2)
	got, _, err := cl.Read(ctx, 0)
	if err != nil {
		t.Fatalf("read after crash (failover): %v", err)
	}
	if string(got) != "pre" {
		t.Fatalf("read %q, want %q", got, "pre")
	}
}

// TestCrashDuringLoadPreservesAtomicity kills a server while a mixed
// workload is running and validates the full history afterwards.
// Operations that failed over or timed out are recorded as incomplete.
func TestCrashDuringLoadPreservesAtomicity(t *testing.T) {
	c := newCluster(t, 4)
	ctx := ctxT(t)
	rec := &opRecorder{}
	var wg sync.WaitGroup
	stopc := make(chan struct{})

	for w := 0; w < 4; w++ {
		cl := c.newClient(client.Options{AttemptTimeout: 500 * time.Millisecond})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopc:
					return
				default:
				}
				v := fmt.Sprintf("w%d-%d", w, i)
				start := time.Now().UnixNano()
				tg, attempts, err := cl.WriteDetailed(ctx, 0, []byte(v))
				end := time.Now().UnixNano()
				if err != nil {
					rec.add(checker.Op{Kind: checker.KindWrite, Value: v, Start: start, Incomplete: true})
					continue
				}
				if attempts > 1 {
					// Timed-out attempts may have taken effect as
					// unacknowledged ghost writes of the same value.
					rec.add(checker.Op{Kind: checker.KindWrite, Value: v, Start: start, Incomplete: true})
				}
				rec.add(checker.Op{Kind: checker.KindWrite, Value: v, Start: start, End: end, Tag: tg})
			}
		}()
	}
	for r := 0; r < 4; r++ {
		cl := c.newClient(client.Options{AttemptTimeout: 500 * time.Millisecond})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopc:
					return
				default:
				}
				start := time.Now().UnixNano()
				v, tg, err := cl.Read(ctx, 0)
				end := time.Now().UnixNano()
				if err != nil {
					continue
				}
				rec.add(checker.Op{Kind: checker.KindRead, Value: string(v), Start: start, End: end, Tag: tg})
			}
		}()
	}

	time.Sleep(150 * time.Millisecond)
	c.crash(3)
	time.Sleep(150 * time.Millisecond)
	c.crash(2)
	time.Sleep(150 * time.Millisecond)
	close(stopc)
	wg.Wait()

	h := rec.history()
	if len(h) == 0 {
		t.Fatal("no operations recorded")
	}
	if err := checker.CheckTagged(h); err != nil {
		t.Fatalf("history not atomic after crashes: %v", err)
	}
	// The cluster must still be fully operational on the survivors.
	cl := c.newClient(client.Options{Servers: []wire.ProcessID{1, 4}})
	if _, err := cl.Write(ctx, 0, []byte("final")); err != nil {
		t.Fatalf("final write: %v", err)
	}
	got, _, err := cl.Read(ctx, 0)
	if err != nil {
		t.Fatalf("final read: %v", err)
	}
	if string(got) != "final" {
		t.Fatalf("final read %q", got)
	}
}

// TestCrashDuringMultiObjectLoadPreservesAtomicity is the multi-object
// crash storm: 8 objects, each with a dedicated writer and reader, and a
// server crashing mid-write — so some objects lose in-flight writes and
// others do not. Every object's history
// must stay atomic (per-object linearizability is the paper's guarantee)
// and the whole cluster must remain operational on every object.
func TestCrashDuringMultiObjectLoadPreservesAtomicity(t *testing.T) {
	const objects = 8
	c := newCluster(t, 4)
	ctx := ctxT(t)
	var recs [objects]opRecorder
	var wg sync.WaitGroup
	stopc := make(chan struct{})

	for obj := 0; obj < objects; obj++ {
		wcl := c.newClient(client.Options{AttemptTimeout: 500 * time.Millisecond})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopc:
					return
				default:
				}
				v := fmt.Sprintf("o%d-%d", obj, i)
				start := time.Now().UnixNano()
				tg, attempts, err := wcl.WriteDetailed(ctx, wire.ObjectID(obj), []byte(v))
				end := time.Now().UnixNano()
				if err != nil || attempts > 1 {
					// Failed or retried writes may have taken effect as
					// unacknowledged ghost writes; record as incomplete.
					recs[obj].add(checker.Op{Kind: checker.KindWrite, Value: v, Start: start, Incomplete: true})
					if err != nil {
						continue
					}
				}
				recs[obj].add(checker.Op{Kind: checker.KindWrite, Value: v, Start: start, End: end, Tag: tg})
			}
		}()
		rcl := c.newClient(client.Options{AttemptTimeout: 500 * time.Millisecond})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopc:
					return
				default:
				}
				start := time.Now().UnixNano()
				v, tg, err := rcl.Read(ctx, wire.ObjectID(obj))
				end := time.Now().UnixNano()
				if err != nil {
					continue
				}
				recs[obj].add(checker.Op{Kind: checker.KindRead, Value: string(v), Start: start, End: end, Tag: tg})
			}
		}()
	}

	time.Sleep(150 * time.Millisecond)
	c.crash(2) // mid-write on whatever objects are in flight
	time.Sleep(200 * time.Millisecond)
	close(stopc)
	wg.Wait()

	total := 0
	for obj := 0; obj < objects; obj++ {
		h := recs[obj].history()
		total += len(h)
		if err := checker.CheckTagged(h); err != nil {
			t.Fatalf("object %d history not atomic after crash: %v", obj, err)
		}
	}
	if total == 0 {
		t.Fatal("no operations recorded")
	}
	// Every object must still be writable and readable on the survivors.
	cl := c.newClient(client.Options{Servers: []wire.ProcessID{1, 3, 4}})
	for obj := 0; obj < objects; obj++ {
		want := fmt.Sprintf("final-%d", obj)
		if _, err := cl.Write(ctx, wire.ObjectID(obj), []byte(want)); err != nil {
			t.Fatalf("final write to object %d: %v", obj, err)
		}
		got, _, err := cl.Read(ctx, wire.ObjectID(obj))
		if err != nil {
			t.Fatalf("final read of object %d: %v", obj, err)
		}
		if string(got) != want {
			t.Fatalf("object %d holds %q, want %q", obj, got, want)
		}
	}
	// Recovery re-queued envelopes on the survivors; every robustness
	// counter must still read clean.
	for id, srv := range c.servers {
		assertCleanCounters(t, id, srv)
	}
}

func TestWriteAfterCrashStillVisibleEverywhere(t *testing.T) {
	c := newCluster(t, 5)
	ctx := ctxT(t)
	c.crash(4)
	cl := c.newClient(client.Options{Servers: []wire.ProcessID{2}})
	if _, err := cl.Write(ctx, 0, []byte("post-crash")); err != nil {
		t.Fatalf("write: %v", err)
	}
	for _, id := range []wire.ProcessID{1, 2, 3, 5} {
		got, _, err := c.pinnedClient(id).Read(ctx, 0)
		if err != nil {
			t.Fatalf("read at %d: %v", id, err)
		}
		if string(got) != "post-crash" {
			t.Fatalf("server %d returned %q", id, got)
		}
	}
}
