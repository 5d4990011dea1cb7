// Package shard provides a fixed-fanout sharded map for per-object
// server state. A single mutex around one map serializes every object's
// handler on one cache line; spreading the objects over a fixed array of
// independently locked shards lets multi-object workloads scale across
// cores while keeping per-operation cost at one hash and one uncontended
// lock. The shard count is fixed — there is no resizing, so a shard's
// address never changes and callers may cache it.
package shard

import "sync"

// DefaultShards is the shard fanout of every Map. It is deliberately
// larger than any realistic core count so that, with the Fibonacci
// spread below, two hot objects rarely contend on one lock. It must
// stay a power of two (ShardIndex masks).
const DefaultShards = 64

// Map is a sharded map from a uint32-like key to V. The zero value is
// not usable; construct with New.
type Map[K ~uint32, V any] struct {
	shards []Shard[K, V]
	mask   uint32
}

// Shard is one lockable slice of the map. Callers lock the shard around
// any access to its contents; the embedded Mutex is exported on purpose —
// the point of sharding is that callers hold the lock across a whole
// read-modify-write, not per map call.
type Shard[K ~uint32, V any] struct {
	sync.Mutex
	items map[K]V
	// Pad the struct to a full 64-byte cache line (Mutex 8 + map 8 +
	// 48) so adjacent shards never share a line; shard_test asserts
	// the size.
	_ [48]byte
}

// New returns a Map with DefaultShards shards.
func New[K ~uint32, V any]() *Map[K, V] {
	m := &Map[K, V]{shards: make([]Shard[K, V], DefaultShards), mask: DefaultShards - 1}
	for i := range m.shards {
		m.shards[i].items = make(map[K]V)
	}
	return m
}

// Shard returns the shard owning k. The caller locks it around access.
// Keys are spread with a Fibonacci hash so that dense sequential object
// ids do not all land in neighboring shards.
func (m *Map[K, V]) Shard(k K) *Shard[K, V] {
	return &m.shards[m.ShardIndex(k)]
}

// ShardIndex returns the index of the shard owning k, for callers that
// maintain parallel per-shard structures (e.g. a per-shard lock-free
// index alongside the locked map). The index is stable for the life of
// the Map.
func (m *Map[K, V]) ShardIndex(k K) int {
	h := uint32(k) * 2654435761 // Knuth's multiplicative hash
	return int((h>>16 ^ h) & m.mask)
}

// NumShards returns the fixed shard fanout.
func (m *Map[K, V]) NumShards() int { return len(m.shards) }

// Get returns the value for k. The caller must hold the shard's lock.
func (s *Shard[K, V]) Get(k K) (V, bool) {
	v, ok := s.items[k]
	return v, ok
}

// Put stores v under k. The caller must hold the shard's lock.
func (s *Shard[K, V]) Put(k K, v V) { s.items[k] = v }

// Range calls fn for every entry, one shard at a time under that shard's
// lock, until fn returns false. No global snapshot is taken: entries
// added or removed in other shards during the walk may or may not be
// seen, exactly like sync.Map.Range.
func (m *Map[K, V]) Range(fn func(K, V) bool) {
	for i := range m.shards {
		s := &m.shards[i]
		s.Lock()
		for k, v := range s.items {
			if !fn(k, v) {
				s.Unlock()
				return
			}
		}
		s.Unlock()
	}
}
