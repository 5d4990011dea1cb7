// contention: concurrent writers and readers hammer several registers
// while every completed operation is recorded; afterwards each object's
// history is validated by the linearizability checker and per-object
// throughput is printed. This is the scenario the paper's pre-write
// barrier exists for — without it, two reads could return new-then-old
// values while a write is in flight (read inversion) — and the
// per-object rates show how the ring's throughput is shared.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"repro/atomicstore"
	"repro/internal/checker"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cluster, err := atomicstore.StartCluster(3)
	if err != nil {
		return err
	}
	defer func() { _ = cluster.Close() }()
	members := cluster.Members()

	ctx := context.Background()
	const objects, writersPer, readersPer, opsPer = 4, 2, 2, 30

	// Per-object histories for the checker, and op counts for the
	// throughput table.
	type objRecord struct {
		mu  sync.Mutex
		ops []checker.Op
	}
	recs := make([]*objRecord, objects)
	for i := range recs {
		recs[i] = &objRecord{}
	}
	record := func(obj int, op checker.Op) {
		r := recs[obj]
		r.mu.Lock()
		op.ID = len(r.ops)
		r.ops = append(r.ops, op)
		r.mu.Unlock()
	}
	newClient := func(pinned atomicstore.ServerID) (*atomicstore.Client, error) {
		opts := []atomicstore.Option{atomicstore.WithAttemptTimeout(5 * time.Second)}
		if pinned != 0 {
			opts = append(opts, atomicstore.WithPinnedServer(pinned))
		}
		return cluster.Client(opts...)
	}

	var wg sync.WaitGroup
	start := time.Now()
	for obj := 0; obj < objects; obj++ {
		for w := 0; w < writersPer; w++ {
			cl, err := newClient(0)
			if err != nil {
				return err
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { _ = cl.Close() }()
				for i := 0; i < opsPer; i++ {
					v := fmt.Sprintf("o%d-w%d-%d", obj, w, i)
					s := time.Now().UnixNano()
					t, err := cl.Write(ctx, atomicstore.ObjectID(obj), []byte(v))
					if err != nil {
						log.Printf("write error: %v", err)
						return
					}
					record(obj, checker.Op{
						Kind: checker.KindWrite, Value: v,
						Start: s, End: time.Now().UnixNano(), Tag: t,
					})
				}
			}()
		}
		for r := 0; r < readersPer; r++ {
			// Each reader pins a different server: atomicity must hold
			// across servers, not just within one.
			cl, err := newClient(members[(obj+r)%len(members)])
			if err != nil {
				return err
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { _ = cl.Close() }()
				for i := 0; i < opsPer; i++ {
					s := time.Now().UnixNano()
					v, t, err := cl.Read(ctx, atomicstore.ObjectID(obj))
					if err != nil {
						log.Printf("read error: %v", err)
						return
					}
					record(obj, checker.Op{
						Kind: checker.KindRead, Value: string(v),
						Start: s, End: time.Now().UnixNano(), Tag: t,
					})
				}
			}()
		}
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	fmt.Printf("%d objects, %d writers + %d readers each (readers pinned to distinct servers)\n",
		objects, writersPer, readersPer)
	fmt.Println("object  lane-independent throughput   history")
	total := 0
	for obj := 0; obj < objects; obj++ {
		r := recs[obj]
		r.mu.Lock()
		history := append([]checker.Op(nil), r.ops...)
		r.mu.Unlock()
		if err := checker.CheckTagged(history); err != nil {
			return fmt.Errorf("object %d: ATOMICITY VIOLATION: %w", obj, err)
		}
		fmt.Printf("  %4d  %7.0f ops/s (%d ops)      atomic\n",
			obj, float64(len(history))/elapsed, len(history))
		total += len(history)
	}
	fmt.Printf(" total  %7.0f ops/s (%d ops)\n", float64(total)/elapsed, total)
	fmt.Println("every object's history verified atomic: no read inversion, tags totally ordered, real-time respected")
	return nil
}
