package service

import (
	"fmt"
	"sync"
	"testing"
)

func TestStoreGetOrCreateSingleflight(t *testing.T) {
	s := NewStore(1024, nil, nil)
	var made int
	v, created := s.GetOrCreate("k", func() any { made++; return "v1" })
	if !created || v != "v1" {
		t.Fatalf("first GetOrCreate = (%v, %v)", v, created)
	}
	v, created = s.GetOrCreate("k", func() any { made++; return "v2" })
	if created || v != "v1" {
		t.Fatalf("second GetOrCreate = (%v, %v), want cached v1", v, created)
	}
	if made != 1 {
		t.Fatalf("mk ran %d times, want 1", made)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 entry", st)
	}
}

func TestStoreConcurrentSingleflight(t *testing.T) {
	s := NewStore(1024, nil, nil)
	const goroutines = 32
	var mkCount sync.Map
	var wg sync.WaitGroup
	results := make([]any, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v, _ := s.GetOrCreate("shared", func() any {
				mkCount.Store(g, true)
				return g
			})
			results[g] = v
		}(g)
	}
	wg.Wait()
	n := 0
	mkCount.Range(func(any, any) bool { n++; return true })
	if n != 1 {
		t.Fatalf("mk ran %d times under contention, want 1", n)
	}
	for g := 1; g < goroutines; g++ {
		if results[g] != results[0] {
			t.Fatalf("goroutine %d observed %v, others %v", g, results[g], results[0])
		}
	}
}

func TestStoreLRUBound(t *testing.T) {
	var evicted []string
	s := NewStore(storeShards, nil, func(k string, _ any) { evicted = append(evicted, k) }) // 1 entry/shard
	// Fill well past capacity; every shard must stay at its bound.
	for i := 0; i < 10*storeShards; i++ {
		s.GetOrCreate(fmt.Sprintf("key-%d", i), func() any { return i })
	}
	if got := s.Len(); got > storeShards {
		t.Fatalf("store holds %d entries, per-shard bound of 1 not enforced", got)
	}
	if s.Stats().Evictions == 0 || len(evicted) == 0 {
		t.Fatal("no evictions recorded despite overflow")
	}
}

func TestStoreCanEvictGuard(t *testing.T) {
	// With everything marked un-evictable, the shard exceeds capacity
	// rather than dropping an entry.
	s := NewStore(storeShards, func(any) bool { return false }, nil)
	for i := 0; i < 5*storeShards; i++ {
		s.GetOrCreate(fmt.Sprintf("key-%d", i), func() any { return i })
	}
	if got := s.Len(); got != 5*storeShards {
		t.Fatalf("store holds %d entries, want all %d kept", got, 5*storeShards)
	}
	if s.Stats().Evictions != 0 {
		t.Fatal("evicted an un-evictable entry")
	}
}

func TestStorePeekDoesNotCount(t *testing.T) {
	s := NewStore(16, nil, nil)
	s.GetOrCreate("k", func() any { return 1 })
	before := s.Stats()
	s.Peek("k")
	s.Peek("absent")
	after := s.Stats()
	if after.Hits != before.Hits || after.Misses != before.Misses {
		t.Fatalf("Peek moved counters: %+v -> %+v", before, after)
	}
}
