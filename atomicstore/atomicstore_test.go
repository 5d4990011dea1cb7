package atomicstore_test

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/atomicstore"
	"repro/internal/wire"
)

func TestClusterRoundTrip(t *testing.T) {
	c, err := atomicstore.StartCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	cl, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	wver, err := cl.Write(ctx, 5, []byte("facade"))
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if wver.IsZero() {
		t.Fatal("write acknowledged at the zero version")
	}
	// Every server serves the value through a pinned client.
	for _, id := range c.Members() {
		p, err := c.Client(atomicstore.WithPinnedServer(id))
		if err != nil {
			t.Fatal(err)
		}
		v, rver, err := p.Read(ctx, 5)
		_ = p.Close()
		if err != nil {
			t.Fatalf("read via %d: %v", id, err)
		}
		if string(v) != "facade" || rver != wver {
			t.Fatalf("server %d serves %q at %s, want facade at %s", id, v, rver, wver)
		}
	}
}

func TestClusterKVAndCrash(t *testing.T) {
	c, err := atomicstore.StartCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	cl, err := c.Client(atomicstore.WithAttemptTimeout(500 * time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()
	kv, err := cl.KV(16)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := kv.Put(ctx, "k", []byte("v1")); err != nil {
		t.Fatalf("put: %v", err)
	}
	c.Crash(2)
	deadline := time.Now().Add(20 * time.Second)
	for {
		if _, err := kv.Put(ctx, "k", []byte("v2")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("put never succeeded after crash")
		}
	}
	v, err := kv.Get(ctx, "k")
	if err != nil || string(v) != "v2" {
		t.Fatalf("get after crash: %q, %v", v, err)
	}
	if _, err := kv.Get(ctx, "nope"); !errors.Is(err, atomicstore.ErrKeyNotFound) {
		t.Fatalf("missing key: %v", err)
	}
}

// reserveRing binds ephemeral loopback ports for a TCP ring.
func reserveRing(t *testing.T, n int) []atomicstore.Member {
	t.Helper()
	var ring []atomicstore.Member
	for i := 1; i <= n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := l.Addr().String()
		_ = l.Close()
		ring = append(ring, atomicstore.Member{ID: atomicstore.ServerID(i), Addr: addr})
	}
	return ring
}

func TestJoinDialTCP(t *testing.T) {
	ring := reserveRing(t, 3)
	for _, m := range ring {
		srv, err := atomicstore.Join(m.ID, ring)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = srv.Close() }()
		if err := srv.CheckRing(); err != nil && m.ID == ring[len(ring)-1].ID {
			// By the last Join every successor is up.
			t.Fatalf("CheckRing: %v", err)
		}
	}
	cl, err := atomicstore.Dial(ring, atomicstore.WithAttemptTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := cl.Write(ctx, 0, []byte("tcp")); err != nil {
		t.Fatalf("write: %v", err)
	}
	v, _, err := cl.Read(ctx, 0)
	if err != nil || string(v) != "tcp" {
		t.Fatalf("read %q (%v), want tcp", v, err)
	}
}

// TestJoinLaneMismatchFailsFast: a server joined with the wrong -lanes
// is rejected by its successor's handshake, surfaced typed through
// CheckRing; a client dialed with the wrong ring order is rejected at
// Dial.
func TestJoinLaneMismatchFailsFast(t *testing.T) {
	ring := reserveRing(t, 2)
	srv1, err := atomicstore.Join(ring[0].ID, ring, atomicstore.WithWriteLanes(4))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv1.Close() }()
	srv2, err := atomicstore.Join(ring[1].ID, ring, atomicstore.WithWriteLanes(2))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv2.Close() }()

	var herr *wire.HandshakeError
	if err := srv1.CheckRing(); !errors.As(err, &herr) {
		t.Fatalf("CheckRing: got %v, want *wire.HandshakeError", err)
	}
	if herr.Field != "lanes" {
		t.Fatalf("wrong field: %+v", herr)
	}

	// A client whose ring order disagrees with the servers' fails at
	// Dial with a membership mismatch.
	reversed := []atomicstore.Member{ring[1], ring[0]}
	if _, err := atomicstore.Dial(reversed, atomicstore.WithAttemptTimeout(time.Second)); !errors.As(err, &herr) {
		t.Fatalf("Dial: got %v, want *wire.HandshakeError", err)
	}
	if herr.Field != "membership" {
		t.Fatalf("wrong field: %+v", herr)
	}
}

// TestWriteCopiesCallerValue: the in-memory network hands frames over by
// reference, so the client copies a written value before it sends it.
// Changing the caller's buffer after Write returns must not change the
// register.
func TestWriteCopiesCallerValue(t *testing.T) {
	c, err := atomicstore.StartCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	cl, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	buf := []byte("original")
	if _, err := cl.Write(ctx, 3, buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	copy(buf, "mutated!")
	for _, id := range c.Members() {
		p, err := c.Client(atomicstore.WithPinnedServer(id))
		if err != nil {
			t.Fatal(err)
		}
		v, _, err := p.Read(ctx, 3)
		_ = p.Close()
		if err != nil {
			t.Fatalf("read via %d: %v", id, err)
		}
		if string(v) != "original" {
			t.Fatalf("server %d serves %q, want %q", id, v, "original")
		}
	}
}
