// Package service turns the campaign Engine into a long-lived HTTP
// backend: a content-addressed result cache over request fingerprints
// (Store), a bounded job queue over one shared core.Engine (Server), and
// the /v1 campaign API with NDJSON event streaming served by cmd/rmserved.
//
// The design leans on the Engine's determinism contract: a campaign's
// Times are a pure function of its normalized request, so results are
// safely cacheable -- and duplicate submissions coalescable -- by the
// core.WireRequest fingerprint alone.
package service

import (
	"container/list"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// storeShards is the number of independently locked cache shards. Sixteen
// keeps lock contention negligible for any plausible submission rate while
// costing nothing at rest.
const storeShards = 16

// Store is an in-memory, content-addressed cache: string keys (campaign
// fingerprints) to opaque values (jobs), sharded by key hash, each shard
// LRU-bounded. GetOrCreate is the singleflight primitive of the service:
// concurrent submissions of the same fingerprint observe exactly one
// created value and coalesce onto it.
//
// A Store is safe for concurrent use.
type Store struct {
	capacity int // per-shard entry bound
	// canEvict guards LRU eviction; nil means everything is evictable.
	// The server passes a "job finished" predicate so an in-flight job is
	// never dropped from the fingerprint index while it still needs to
	// coalesce duplicates and route events.
	canEvict func(v any) bool
	// onEvict observes evictions (e.g. to unlink the job from the ID
	// index). It runs with the shard lock held: keep it fast and do not
	// call back into the Store from it.
	onEvict func(key string, v any)

	seed   maphash.Seed
	shards [storeShards]storeShard

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

type storeShard struct {
	mu  sync.Mutex
	lru *list.List // front = most recent; values are *storeEntry
	m   map[string]*list.Element
}

type storeEntry struct {
	key string
	v   any
}

// NewStore builds a store bounded to roughly capacity entries (distributed
// over the shards; at least one per shard). canEvict and onEvict may be
// nil; see the Store fields for their contracts.
func NewStore(capacity int, canEvict func(v any) bool, onEvict func(key string, v any)) *Store {
	per := capacity / storeShards
	if per < 1 {
		per = 1
	}
	s := &Store{capacity: per, canEvict: canEvict, onEvict: onEvict, seed: maphash.MakeSeed()}
	for i := range s.shards {
		s.shards[i].lru = list.New()
		s.shards[i].m = make(map[string]*list.Element)
	}
	return s
}

func (s *Store) shard(key string) *storeShard {
	return &s.shards[maphash.String(s.seed, key)%storeShards]
}

// GetOrCreate returns the value under key, creating it with mk on a miss.
// Exactly one caller's mk runs per resident key; everyone else gets that
// value back with created=false. A hit refreshes the entry's LRU position
// and counts toward Stats().Hits; a creation counts toward Misses.
//
// mk runs under the shard lock, so it must be cheap and must not touch the
// Store (allocate the value, do not run the campaign).
func (s *Store) GetOrCreate(key string, mk func() any) (v any, created bool) {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.m[key]; ok {
		sh.lru.MoveToFront(el)
		s.hits.Add(1)
		return el.Value.(*storeEntry).v, false
	}
	s.misses.Add(1)
	v = mk()
	sh.m[key] = sh.lru.PushFront(&storeEntry{key: key, v: v})
	s.evictLocked(sh)
	return v, true
}

// Peek returns the value under key without touching LRU order or the
// hit/miss counters -- the internal lookup of event routing and health
// reporting, which must not skew the cache statistics.
func (s *Store) Peek(key string) (any, bool) {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.m[key]; ok {
		return el.Value.(*storeEntry).v, true
	}
	return nil, false
}

// evictLocked drops least-recently-used evictable entries until the shard
// is within capacity. Un-evictable (in-flight) entries are skipped; if the
// overflow is entirely in-flight the shard temporarily exceeds capacity
// rather than break singleflight.
func (s *Store) evictLocked(sh *storeShard) {
	over := sh.lru.Len() - s.capacity
	if over <= 0 {
		return
	}
	el := sh.lru.Back()
	for el != nil && over > 0 {
		prev := el.Prev()
		e := el.Value.(*storeEntry)
		if s.canEvict == nil || s.canEvict(e.v) {
			sh.lru.Remove(el)
			delete(sh.m, e.key)
			s.evictions.Add(1)
			if s.onEvict != nil {
				s.onEvict(e.key, e.v)
			}
			over--
		}
		el = prev
	}
}

// Len returns the resident entry count.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.lru.Len()
		sh.mu.Unlock()
	}
	return n
}

// StoreStats is a snapshot of the cache counters.
type StoreStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
}

// Stats snapshots the hit/miss/eviction counters and entry count.
func (s *Store) Stats() StoreStats {
	return StoreStats{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Evictions: s.evictions.Load(),
		Entries:   s.Len(),
	}
}
