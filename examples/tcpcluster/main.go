// tcpcluster: the full system over real TCP sockets in one process —
// three servers on loopback ports joined through the session handshake,
// a load-generating client, and a mid-run crash. This is the same wiring
// as running cmd/atomicstore-server on three machines.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"repro/atomicstore"
	"repro/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// reserveRing binds n ephemeral loopback ports to build a complete ring
// membership before any server starts (servers need the full ring to
// dial their successors).
func reserveRing(n int) ([]atomicstore.Member, error) {
	var ring []atomicstore.Member
	for i := 1; i <= n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addr := l.Addr().String()
		_ = l.Close()
		ring = append(ring, atomicstore.Member{ID: atomicstore.ServerID(i), Addr: addr})
	}
	return ring, nil
}

func run() error {
	ring, err := reserveRing(3)
	if err != nil {
		return err
	}
	servers := make(map[atomicstore.ServerID]*atomicstore.Server)
	for _, m := range ring {
		srv, err := atomicstore.Join(m.ID, ring)
		if err != nil {
			return err
		}
		servers[m.ID] = srv
		fmt.Printf("server %d on %s\n", m.ID, srv.Addr())
	}
	defer func() {
		for _, srv := range servers {
			_ = srv.Close()
		}
	}()

	nextClient := atomicstore.ServerID(100)
	newClient := func() (*atomicstore.Client, error) {
		nextClient++
		return atomicstore.Dial(ring,
			atomicstore.WithClientID(nextClient),
			atomicstore.WithAttemptTimeout(time.Second))
	}

	ctx := context.Background()
	cl, err := newClient()
	if err != nil {
		return err
	}
	defer func() { _ = cl.Close() }()

	// Functional round trip over real sockets.
	if _, err := cl.Write(ctx, 0, []byte("tcp-hello")); err != nil {
		return err
	}
	v, t, err := cl.Read(ctx, 0)
	if err != nil {
		return err
	}
	fmt.Printf("read %q at tag %s over TCP\n", v, t)

	// A short measured load burst per object: the ring packs every
	// object's messages into shared frame trains, so per-object rates
	// show how the ring's throughput is shared as objects are added.
	const loadObjects = 4
	fmt.Printf("load burst: %d objects, 1 writer + 1 reader each, 1s\n", loadObjects)
	var (
		loadWG  sync.WaitGroup
		results [loadObjects]workload.Result
	)
	for obj := 0; obj < loadObjects; obj++ {
		lg, err := newClient()
		if err != nil {
			return err
		}
		defer func() { _ = lg.Close() }()
		loadWG.Add(1)
		go func() {
			defer loadWG.Done()
			results[obj] = workload.Run(ctx, workload.Config{
				Readers:     []workload.Storage{lg},
				Writers:     []workload.Storage{lg},
				Concurrency: 2,
				Object:      atomicstore.ObjectID(obj),
				ValueBytes:  1024,
				Duration:    time.Second,
			})
		}()
	}
	loadWG.Wait()
	var totalR, totalW float64
	for obj, res := range results {
		fmt.Printf("  object %d: %7.0f reads/s (p50 %v), %6.0f writes/s (p50 %v)\n",
			obj, res.ReadOpsPerSec, res.ReadLatency.P50, res.WriteOpsPerSec, res.WriteLatency.P50)
		totalR += res.ReadOpsPerSec
		totalW += res.WriteOpsPerSec
	}
	fmt.Printf("  total:    %7.0f reads/s, %6.0f writes/s\n", totalR, totalW)

	// Crash server 2 (close its sockets); the ring splices over TCP.
	fmt.Println("crashing server 2")
	_ = servers[2].Close()
	delete(servers, 2)

	deadline := time.Now().Add(15 * time.Second)
	for {
		if _, err := cl.Write(ctx, 0, []byte("after-crash")); err == nil {
			break
		} else if time.Now().After(deadline) {
			return fmt.Errorf("cluster did not recover: %w", err)
		}
	}
	v, _, err = cl.Read(ctx, 0)
	if err != nil {
		return err
	}
	fmt.Printf("after crash, read %q from the spliced ring\n", v)
	return nil
}
