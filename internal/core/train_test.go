package core_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/checker"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/wire"
)

// runTrainWorkload drives a contended multi-object workload — one
// writer and one reader per object, writers pinned round-robin so every
// server both initiates and forwards — and checks per-object
// linearizability plus per-origin fairness (every writer keeps
// completing writes: trains must not let one origin starve another).
func runTrainWorkload(t *testing.T, newWriter, newReader func(pin wire.ProcessID) *client.Client, members []wire.ProcessID, objects int, d time.Duration) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	recs := make([]opRecorder, objects)
	completed := make([]int64, objects)
	var mu sync.Mutex
	var wg sync.WaitGroup
	stopc := make(chan struct{})
	for obj := 0; obj < objects; obj++ {
		pin := members[obj%len(members)]
		wcl := newWriter(pin)
		wg.Add(1)
		go func(obj int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopc:
					return
				default:
				}
				v := fmt.Sprintf("o%d-%d", obj, i)
				start := time.Now().UnixNano()
				tg, err := wcl.Write(ctx, wire.ObjectID(obj), []byte(v))
				end := time.Now().UnixNano()
				if err != nil {
					recs[obj].add(checker.Op{Kind: checker.KindWrite, Value: v, Start: start, Incomplete: true})
					continue
				}
				mu.Lock()
				completed[obj]++
				mu.Unlock()
				recs[obj].add(checker.Op{Kind: checker.KindWrite, Value: v, Start: start, End: end, Tag: tg})
			}
		}(obj)
		rcl := newReader(pin)
		wg.Add(1)
		go func(obj int) {
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
		}(obj)
	}
	// Run the contended window, then keep going (bounded) until every
	// writer has completed at least one write: on a loaded single-core
	// host the last-started writers may still be ramping up when the
	// window closes, and the fairness property is "no origin starves",
	// not "every origin finishes inside an arbitrary slice".
	time.Sleep(d)
	deadline := time.Now().Add(15 * time.Second)
	for {
		mu.Lock()
		starved := -1
		for obj := range completed {
			if completed[obj] == 0 {
				starved = obj
				break
			}
		}
		snapshot := append([]int64(nil), completed...)
		mu.Unlock()
		if starved < 0 {
			break
		}
		if time.Now().After(deadline) {
			close(stopc)
			wg.Wait()
			t.Fatalf("object %d writer starved: no write completed (all: %v)", starved, snapshot)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stopc)
	wg.Wait()

	for obj := 0; obj < objects; obj++ {
		if err := checker.CheckTagged(recs[obj].history()); err != nil {
			t.Fatalf("object %d history not atomic: %v", obj, err)
		}
	}
}

// TestTrainLengthsLinearizableMem runs the contended workload over the
// in-memory transport at TrainLength 1 (classic piggyback), 4, and 8:
// per-object histories must stay linearizable and no origin's writer
// may starve at any train length.
func TestTrainLengthsLinearizableMem(t *testing.T) {
	for _, train := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("train=%d", train), func(t *testing.T) {
			c := newCluster(t, 3, func(cfg *core.Config) { cfg.TrainLength = train })
			mk := func(pin wire.ProcessID) *client.Client {
				return c.newClient(client.Options{
					Servers:        []wire.ProcessID{pin},
					Policy:         client.PolicyPinned,
					AttemptTimeout: 2 * time.Second,
				})
			}
			runTrainWorkload(t, mk, mk, c.members, 8, 250*time.Millisecond)
			for id, srv := range c.servers {
				assertCleanCounters(t, id, srv)
			}
		})
	}
}

// TestTrainLengthsLinearizableTCP is the same property over real TCP
// (session endpoints, per-lane links, pooled inbound values).
func TestTrainLengthsLinearizableTCP(t *testing.T) {
	for _, train := range []int{1, 8} {
		t.Run(fmt.Sprintf("train=%d", train), func(t *testing.T) {
			c, _ := newSessionTCPCluster(t, 3, 4, func(cfg *core.Config) { cfg.TrainLength = train })
			mk := func(pin wire.ProcessID) *client.Client {
				return c.newSessionClient(2 * time.Second)
			}
			runTrainWorkload(t, mk, mk, c.members, 4, 200*time.Millisecond)
		})
	}
}
