package shard

import (
	"sync"
	"testing"
	"unsafe"
)

func TestFanoutIsDefaultShards(t *testing.T) {
	if got := New[uint32, int]().NumShards(); got != DefaultShards {
		t.Fatalf("NumShards() = %d, want %d", got, DefaultShards)
	}
	if DefaultShards&(DefaultShards-1) != 0 {
		t.Fatalf("DefaultShards %d is not a power of two", DefaultShards)
	}
}

func TestBasicOperations(t *testing.T) {
	m := New[uint32, string]()
	s := m.Shard(7)
	s.Lock()
	if _, ok := s.Get(7); ok {
		t.Fatal("empty map reported a value")
	}
	s.Put(7, "seven")
	if v, ok := s.Get(7); !ok || v != "seven" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	s.Put(7, "other")
	if v, _ := s.Get(7); v != "other" {
		t.Fatalf("Put did not overwrite: %q", v)
	}
	s.Unlock()
}

func TestShardIsStable(t *testing.T) {
	m := New[uint32, int]()
	for k := uint32(0); k < 1000; k++ {
		if m.Shard(k) != m.Shard(k) {
			t.Fatalf("key %d moved shards", k)
		}
	}
}

func TestKeysSpreadAcrossShards(t *testing.T) {
	m := New[uint32, int]()
	used := make(map[*Shard[uint32, int]]bool)
	for k := uint32(0); k < DefaultShards; k++ {
		used[m.Shard(k)] = true
	}
	// Dense sequential keys must not pile onto a few shards.
	if len(used) < DefaultShards*3/4 {
		t.Fatalf("%d sequential keys hit only %d/%d shards", DefaultShards, len(used), DefaultShards)
	}
}

// count returns the number of entries Range visits.
func count[V any](m *Map[uint32, V]) int {
	n := 0
	m.Range(func(uint32, V) bool {
		n++
		return true
	})
	return n
}

func TestRange(t *testing.T) {
	m := New[uint32, int]()
	for k := uint32(0); k < 100; k++ {
		s := m.Shard(k)
		s.Lock()
		s.Put(k, int(k))
		s.Unlock()
	}
	if n := count(m); n != 100 {
		t.Fatalf("Range visited %d entries, want 100", n)
	}
	sum := 0
	m.Range(func(k uint32, v int) bool {
		sum += v
		return true
	})
	if want := 99 * 100 / 2; sum != want {
		t.Fatalf("Range sum = %d, want %d", sum, want)
	}
	seen := 0
	m.Range(func(uint32, int) bool {
		seen++
		return false
	})
	if seen != 1 {
		t.Fatalf("Range ignored early stop: visited %d", seen)
	}
}

func TestConcurrentShardedWriters(t *testing.T) {
	m := New[uint32, int]()
	const goroutines, perG = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := uint32(g*perG + i)
				s := m.Shard(k)
				s.Lock()
				v, _ := s.Get(k)
				s.Put(k, v+1)
				s.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if n := count(m); n != goroutines*perG {
		t.Fatalf("Range visited %d entries, want %d", n, goroutines*perG)
	}
	m.Range(func(k uint32, v int) bool {
		if v != 1 {
			t.Errorf("key %d = %d, want 1", k, v)
			return false
		}
		return true
	})
}

func TestShardFillsCacheLine(t *testing.T) {
	if s := unsafe.Sizeof(Shard[uint32, int]{}); s%64 != 0 {
		t.Fatalf("Shard size %d is not a multiple of a 64-byte cache line", s)
	}
}
