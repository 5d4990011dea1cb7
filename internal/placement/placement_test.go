package placement_test

import (
	"hash/fnv"
	"testing"

	"repro/internal/placement"
	"repro/internal/wire"
)

// TestRingOfStable: the routing decision is a pure function of the
// object id and ring count — any client, any call order, any process
// computes the same ring. (The federation's correctness rests on this:
// two clients disagreeing on RingOf would fork a register.)
func TestRingOfStable(t *testing.T) {
	for _, rings := range []int{1, 2, 3, 4, 7, 16} {
		for obj := 0; obj < 4096; obj++ {
			a := placement.RingOf(wire.ObjectID(obj), rings)
			b := placement.RingOf(wire.ObjectID(obj), rings)
			if a != b {
				t.Fatalf("RingOf(%d, %d) unstable: %d then %d", obj, rings, a, b)
			}
			if a < 0 || a >= rings {
				t.Fatalf("RingOf(%d, %d) = %d out of range", obj, rings, a)
			}
		}
	}
}

// TestRingOfUniform: sequential object ids spread near-uniformly over
// the rings (the workloads in this repository all use dense ids, so
// this is the distribution that matters, not random ids).
func TestRingOfUniform(t *testing.T) {
	const objects = 1 << 16
	for _, rings := range []int{2, 4, 8} {
		counts := placement.RingCounts(objects, rings)
		mean := float64(objects) / float64(rings)
		for r, c := range counts {
			dev := (float64(c) - mean) / mean
			if dev < -0.05 || dev > 0.05 {
				t.Fatalf("rings=%d: ring %d owns %d of %d objects (%.1f%% from uniform)",
					rings, r, c, objects, dev*100)
			}
		}
	}
}

// TestRingOfConsistent: growing the federation from R to R+1 rings
// moves only objects that land in the new ring — no object migrates
// between two surviving rings, and only ~1/(R+1) of them move at all.
// This is the "consistent" in consistent hashing, and the property
// slice rebalancing will lean on once membership is dynamic.
func TestRingOfConsistent(t *testing.T) {
	const objects = 1 << 14
	for rings := 1; rings <= 8; rings++ {
		moved := 0
		for obj := 0; obj < objects; obj++ {
			before := placement.RingOf(wire.ObjectID(obj), rings)
			after := placement.RingOf(wire.ObjectID(obj), rings+1)
			if before != after {
				if after != rings {
					t.Fatalf("object %d moved ring %d -> %d when growing %d -> %d rings (must only move to the new ring %d)",
						obj, before, after, rings, rings+1, rings)
				}
				moved++
			}
		}
		frac := float64(moved) / float64(objects)
		want := 1.0 / float64(rings+1)
		if frac < want*0.8 || frac > want*1.2 {
			t.Fatalf("growing %d -> %d rings moved %.3f of objects, want ~%.3f",
				rings, rings+1, frac, want)
		}
	}
}

// TestObjectOfKeyMatchesLegacyScheme pins ObjectOfKey to the FNV-32a
// fold the KV store has used since PR 3, so existing deployments' key
// placement does not shift under them.
func TestObjectOfKeyMatchesLegacyScheme(t *testing.T) {
	keys := []string{"", "a", "user:17", "user:18", "a-much-longer-key-with-structure/and/slashes"}
	for _, objects := range []int{1, 16, 64, 1024} {
		for _, key := range keys {
			h := fnv.New32a()
			_, _ = h.Write([]byte(key))
			want := wire.ObjectID(h.Sum32() % uint32(objects))
			if got := placement.ObjectOfKey(key, objects); got != want {
				t.Fatalf("ObjectOfKey(%q, %d) = %d, want %d", key, objects, got, want)
			}
		}
	}
}

// TestRingCounts cross-checks the helper against direct enumeration.
func TestRingCounts(t *testing.T) {
	counts := placement.RingCounts(1000, 4)
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 1000 || len(counts) != 4 {
		t.Fatalf("RingCounts(1000, 4) = %v", counts)
	}
	direct := make([]int, 4)
	for obj := 0; obj < 1000; obj++ {
		direct[placement.RingOf(wire.ObjectID(obj), 4)]++
	}
	for r := range counts {
		if counts[r] != direct[r] {
			t.Fatalf("RingCounts disagrees with RingOf at ring %d: %d vs %d", r, counts[r], direct[r])
		}
	}
}

// TestRingOfNoAlloc: the per-request routing decision of the federated
// client is on every operation's path and must stay allocation-free.
func TestRingOfNoAlloc(t *testing.T) {
	sum, obj := 0, 0
	if allocs := testing.AllocsPerRun(1000, func() {
		sum += placement.RingOf(wire.ObjectID(obj&2047), 4)
		obj++
	}); allocs != 0 {
		t.Fatalf("RingOf allocates %.1f/op, want 0", allocs)
	}
	if sum < 0 {
		t.Fatal("impossible")
	}
}

// BenchmarkRingOf times the same decision.
func BenchmarkRingOf(b *testing.B) {
	b.ReportAllocs()
	sum := 0
	for i := 0; i < b.N; i++ {
		sum += placement.RingOf(wire.ObjectID(i), 4)
	}
	if sum < 0 {
		b.Fatal("impossible")
	}
}
