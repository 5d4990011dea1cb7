package atomicstore

import (
	"context"

	"repro/internal/client"
	"repro/internal/store"
	"repro/internal/transport"
)

// Client issues atomic reads and writes against the ring. Any number of
// operations may run concurrently; a request that times out fails over
// to another server automatically (the paper's client model). Client
// satisfies the repository's internal workload.Storage interface, so
// the load-generation and checker tooling drive it directly.
type Client struct {
	cl *client.Client
	ep transport.Endpoint
	// pinned is the ring member this client is pinned to: the
	// WithPinnedServer choice, or — for Dial — the member whose session
	// handshake validated the connection. Zero for round-robin memnet
	// clients, which contact no server until the first operation.
	pinned ServerID
}

// PinnedServer reports which ring member this client is pinned to:
// the WithPinnedServer option when one was given, otherwise (for Dial)
// the member whose session handshake the dial validated. It returns 0
// for an unpinned in-process client, which has no preferred member.
// Harnesses record this as placement provenance next to their
// measurements.
func (c *Client) PinnedServer() ServerID { return c.pinned }

// Write stores value in the given register, returning the version it
// was ordered at. It returns once every available server stores the
// value (write-all-available).
func (c *Client) Write(ctx context.Context, object ObjectID, value []byte) (Version, error) {
	return c.cl.Write(ctx, object, value)
}

// WriteDetailed is Write plus the number of attempts made; attempts > 1
// means earlier timed-out attempts may have taken effect as incomplete
// ghost writes (relevant to linearizability validation).
func (c *Client) WriteDetailed(ctx context.Context, object ObjectID, value []byte) (Version, int, error) {
	return c.cl.WriteDetailed(ctx, object, value)
}

// Read returns the register's current value and version. Reads are
// served locally by a single server — no inter-server traffic — yet
// remain atomic (the pre-write barrier). A zero version with a nil
// value means the register was never written.
func (c *Client) Read(ctx context.Context, object ObjectID) ([]byte, Version, error) {
	return c.cl.Read(ctx, object)
}

// KV composes the store's registers into an atomic-per-key key-value
// map, hashing keys across the given number of registers (the paper's
// motivating construction). See Client.KV.
type KV struct {
	kv *store.KV
}

// ErrKeyNotFound is returned by KV.Get for keys never written.
var ErrKeyNotFound = store.ErrNotFound

// KV returns a key-value view over this client, sharding keys across
// the given number of registers. Keys hashing to the same register are
// read-modify-written together, so concurrent writers should either
// own disjoint keys or use a shard count large enough to avoid
// collisions.
func (c *Client) KV(shards int) (*KV, error) {
	kv, err := store.New(c, shards)
	if err != nil {
		return nil, err
	}
	return &KV{kv: kv}, nil
}

// Put stores value under key, returning the version of the underlying
// register write.
func (k *KV) Put(ctx context.Context, key string, value []byte) (Version, error) {
	return k.kv.Put(ctx, key, value)
}

// Get returns the value stored under key, or ErrKeyNotFound.
func (k *KV) Get(ctx context.Context, key string) ([]byte, error) {
	return k.kv.Get(ctx, key)
}

// Delete removes key; deleting an absent key is a no-op.
func (k *KV) Delete(ctx context.Context, key string) error {
	return k.kv.Delete(ctx, key)
}

// Objects returns the register shard count of the KV view.
func (k *KV) Objects() int { return k.kv.Objects() }

// ObjectOf returns the register a key is placed in. Puts are
// read-modify-writes that are atomic only per register, so concurrent
// writers that must not overwrite each other partition their key sets
// by register, not just by key.
func (k *KV) ObjectOf(key string) ObjectID { return k.kv.ObjectOf(key) }

// Close stops the client and its network endpoint.
func (c *Client) Close() error {
	err := c.cl.Close()
	if cerr := c.ep.Close(); err == nil {
		err = cerr
	}
	return err
}
