// Package servecache is the serving layer's bounded, content-addressed
// result cache. The simulator is deterministic end-to-end, so a
// rendered experiment table is fully determined by its content address
// (experiments.ExperimentKey: experiment ID + the table-affecting
// Options knobs) — a repeated request can be served the byte-identical
// cached table without re-simulating anything. Entries are immutable
// byte slices shared read-only across requests, the same discipline
// the simlint frozen analyzer pins for decoded-kernel programs; the
// cache itself is mutex-guarded (guardedby-annotated) so any number of
// request goroutines may hit it concurrently.
//
// The LRU itself is generic over its value type: the byte cache of
// rendered tables (Cache, New) and the launch memo of simulated
// statistics (internal/experiments) are two instantiations of one
// bounded, mutex-guarded structure.
package servecache

import (
	"bytes"
	"container/list"
	"sync"
)

// Stats is the cache's counter snapshot, surfaced on cmd/simd's
// /statsz endpoint (the //simlint:emitter contract: every counter
// below must appear there, so none can be silently dropped).
type Stats struct {
	// Hits counts Get calls served from the cache — requests that cost
	// zero simulation.
	Hits int64
	// Misses counts Get calls that found nothing.
	Misses int64
	// Evictions counts entries dropped to keep the cache within its
	// byte budget.
	Evictions int64
	// Entries is the current entry count.
	Entries int64
	// Bytes is the current payload total; at most MaxBytes.
	Bytes int64
	// MaxBytes is the configured budget (0 = caching disabled).
	MaxBytes int64
}

// LRU is a bounded content-addressed cache with LRU eviction over a
// byte budget; size prices each value. The zero value is not usable;
// call NewLRU (or New for the byte cache).
type LRU[V any] struct {
	mu sync.Mutex
	//simlint:guardedby mu
	entries map[string]*list.Element
	// lru orders entries most-recently-used first; evictions pop the
	// back.
	//simlint:guardedby mu
	lru *list.List
	//simlint:guardedby mu
	bytes int64
	//simlint:guardedby mu
	hits int64
	//simlint:guardedby mu
	misses int64
	//simlint:guardedby mu
	evictions int64

	// maxBytes is immutable after NewLRU; 0 disables storage so a
	// serving process without a cache budget still runs, it just always
	// misses.
	maxBytes int64
	// size prices a value against the budget; immutable after NewLRU.
	size func(V) int64
	// own, when set, turns an admitted value into the cache's private
	// copy; immutable after construction. Nil stores the value as given.
	own func(V) V
}

// entry is one cached payload; val is immutable once stored.
type entry[V any] struct {
	key  string
	val  V
	size int64
}

// Cache is the byte cache of rendered tables: an LRU that stores its
// own copy of every payload.
type Cache = LRU[[]byte]

// New returns a byte cache bounded at maxBytes of payload (metadata
// overhead is not counted). maxBytes <= 0 disables caching: every Get
// misses and Put is a no-op, so callers need no nil checks.
func New(maxBytes int64) *Cache {
	c := NewLRU(maxBytes, func(b []byte) int64 { return int64(len(b)) })
	c.own = bytes.Clone
	return c
}

// NewLRU returns a cache bounded at maxBytes as priced by size at Put
// time. Values are stored as given and shared with every requester, so
// they must be immutable once Put.
func NewLRU[V any](maxBytes int64, size func(V) int64) *LRU[V] {
	c := &LRU[V]{maxBytes: max(maxBytes, 0), size: size}
	c.mu.Lock()
	c.entries = make(map[string]*list.Element)
	c.lru = list.New()
	c.mu.Unlock()
	return c
}

// Get returns the payload stored under key. The returned value is the
// cache's own immutable copy, shared with every other requester —
// callers must treat it as read-only.
func (c *LRU[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*entry[V]).val, true
}

// Put stores val under key (the byte cache stores a copy) and reports
// whether it was cached. Payloads larger than the whole budget are
// rejected rather than evicting everything else; storing under an
// existing key is a no-op (content addressing: same key, same value —
// re-storing could only churn the copy).
func (c *LRU[V]) Put(key string, val V) bool {
	size := c.size(val)
	if c.maxBytes == 0 || size > c.maxBytes {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.entries[key]; dup {
		return true
	}
	if c.own != nil {
		val = c.own(val)
	}
	c.entries[key] = c.lru.PushFront(&entry[V]{key: key, val: val, size: size})
	c.bytes += size
	for c.bytes > c.maxBytes {
		back := c.lru.Back()
		victim := back.Value.(*entry[V])
		c.lru.Remove(back)
		delete(c.entries, victim.key)
		c.bytes -= victim.size
		c.evictions++
	}
	return true
}

// Stats returns a counter snapshot.
func (c *LRU[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   int64(c.lru.Len()),
		Bytes:     c.bytes,
		MaxBytes:  c.maxBytes,
	}
}
