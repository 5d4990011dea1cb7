// Package placement is the single source of truth for where an object
// lives: which federation ring owns it, which write lane inside that
// ring processes it, and which register object a key-value key is
// stored in. Every layer that places objects — the client façade, the
// server's lane demux, the key-value store, and the bench harnesses —
// routes through this package, so assignment can never skew between a
// client and a server (a client writing object 7 to ring 1 while ring
// 0's servers believe they own it would silently fork the register).
//
// The three hash functions are deliberately independent:
//
//   - RingOf mixes the object id through a splitmix64 finalizer and
//     feeds it to a jump consistent hash (Lamping & Veach). Changing
//     the ring count from R to R+1 moves only ~1/(R+1) of the objects,
//     and never between two surviving rings — the property slice
//     rebalancing will need once membership is dynamic.
//   - LaneOf spreads objects over ring lanes with Knuth's 32-bit
//     multiplicative hash (the PR-2 scheme, moved here verbatim so the
//     on-the-wire lane assignment is unchanged).
//   - ObjectOfKey folds a string key onto a register with FNV-32a (the
//     key-value store's scheme since PR 3, moved here verbatim).
//
// Because RingOf's 64-bit mix shares no structure with LaneOf's 32-bit
// multiply, conditioning on "object lands in ring r" does not bias
// which lane the object takes inside r: lane load stays uniform within
// every ring slice (property-tested in placement_test.go). All three
// functions are allocation-free; RingOf is on the client's per-request
// path and TestRingOfNoAlloc fails if it ever allocates.
package placement

import (
	"hash/fnv"

	"repro/internal/wire"
)

// RingOf returns the federation ring owning an object, in [0, rings).
// rings <= 1 is a single-ring (or ring-less) deployment: everything
// maps to ring 0. The assignment is a jump consistent hash over a
// splitmix64-mixed object id: deterministic across processes, uniform
// across rings, and minimally disruptive when rings are added.
func RingOf(obj wire.ObjectID, rings int) int {
	if rings <= 1 {
		return 0
	}
	key := mix64(uint64(obj))
	var b, j int64 = -1, 0
	for j < int64(rings) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}

// LaneOf returns the ring lane owning an object inside its ring, in
// [0, lanes). Keys are spread with Knuth's multiplicative hash so dense
// sequential object ids do not pile into one lane. lanes <= 1 means a
// single-lane server. This is the wire-visible lane assignment (frame
// headers carry it); every server of a ring must agree on it, which is
// why it lives here and nowhere else.
func LaneOf(obj wire.ObjectID, lanes int) int {
	if lanes <= 1 {
		return 0
	}
	h := uint32(obj) * 2654435761
	return int((h>>16 ^ h) % uint32(lanes))
}

// ObjectOfKey returns the register object a key-value key is placed in,
// in [0, objects). FNV-32a over the key bytes, as the KV store has
// always done; objects <= 0 is the caller's bug and maps to object 0.
func ObjectOfKey(key string, objects int) wire.ObjectID {
	if objects <= 0 {
		return 0
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return wire.ObjectID(h.Sum32() % uint32(objects))
}

// mix64 is the splitmix64 finalizer: a full-avalanche 64-bit mix, so
// the jump hash below sees uncorrelated keys even for the dense
// sequential object ids every workload in this repository uses. Its
// constants share nothing with LaneOf's multiplier — the independence
// argument DESIGN.md §12 makes precise.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// RingCounts returns how many of the objects [0, objects) each of the
// rings owns — the exact (deterministic) slice sizes a uniform
// workload over those objects offers each ring. Bench harnesses use it
// to report expected vs achieved per-ring load.
func RingCounts(objects, rings int) []int {
	if rings < 1 {
		rings = 1
	}
	counts := make([]int, rings)
	for obj := 0; obj < objects; obj++ {
		counts[RingOf(wire.ObjectID(obj), rings)]++
	}
	return counts
}
