// Package service exposes the analytical model and the scenario engine
// over HTTP (see cmd/ccserved): POST /v1/evaluate, /v1/sweep and
// /v1/campaign compute through a canonical-spec result cache — requests
// are canonicalized and hashed by internal/canon, identical in-flight
// requests coalesce onto one computation, and finished results are held
// in a bytes- and entry-bounded LRU with TTL — while GET /v1/healthz and
// /v1/stats report liveness and cache effectiveness. An exact repeat of
// an answered body is found by its body digest before it is decoded.
// Every keyed endpoint is one row of the table in endpoints.go, and one
// pipeline (pipeline.go) serves each row over HTTP, as a batch item and
// through Server.Stream.
package service

import (
	"container/list"
	"crypto/sha256"
	"sync"
	"time"

	"github.com/ccnet/ccnet/internal/canon"
)

// entryOverhead approximates the per-entry bookkeeping cost (list
// element, map slot, entry struct) charged against MaxBytes on top of the
// key and payload lengths.
const entryOverhead = 128

// maxAliases bounds the body digests one entry holds: one per spelling
// of the request that has been answered (key order, number forms,
// preset vs explicit system). A further spelling replaces the oldest.
const maxAliases = 4

// aliasSize is what one alias is charged against MaxBytes: the digest
// stored in the entry plus its map slot.
const aliasSize = 2 * sha256.Size

// BodyDigest names one exact request: SHA-256 over the endpoint name and
// the body bytes. The full request path is a pure function of those two,
// so a digest seen before resolves to the same canonical key. The zero
// value names no request.
type BodyDigest [sha256.Size]byte

// digestBody returns the BodyDigest of body as sent to endpoint.
func digestBody(endpoint string, body []byte) BodyDigest {
	h := sha256.New()
	h.Write([]byte(endpoint))
	h.Write([]byte{0}) // endpoint names never contain NUL
	h.Write(body)
	var d BodyDigest
	h.Sum(d[:0])
	return d
}

// Cache is a thread-safe LRU result cache bounded by entry count and
// total bytes, with a per-entry TTL. Values are opaque byte payloads
// (the service stores encoded response bodies). Besides its canonical
// key, an entry can be found by up to maxAliases body digests: aliases
// share the entry's list element and TTL, are charged against MaxBytes
// and die with the entry. The zero value is not usable; construct with
// NewCache.
type Cache struct {
	mu        sync.Mutex
	ll        *list.List // front = most recently used
	items     map[canon.Key]*list.Element
	aliases   map[BodyDigest]*list.Element // allocated by the first AddAlias
	bytes     int64
	max       int
	maxB      int64
	ttl       time.Duration
	now       func() time.Time // injectable clock for TTL tests
	hits      uint64
	aliasHits uint64
	misses    uint64
	evicted   uint64
	expired   uint64
}

type cacheEntry struct {
	key     canon.Key
	val     []byte
	size    int64
	expires time.Time    // zero = never
	aliases []BodyDigest // oldest first; at most maxAliases
}

// NewCache builds a cache holding at most maxEntries entries and
// maxBytes total bytes (each <= 0 means unbounded on that axis, but not
// both), expiring entries ttl after insertion (ttl <= 0 disables
// expiry).
func NewCache(maxEntries int, maxBytes int64, ttl time.Duration) *Cache {
	return &Cache{
		ll:    list.New(),
		items: make(map[canon.Key]*list.Element),
		max:   maxEntries,
		maxB:  maxBytes,
		ttl:   ttl,
		now:   time.Now,
	}
}

// Get returns the payload cached under k, marking it most recently used.
// An expired entry is removed and reported as a miss.
func (c *Cache) Get(k canon.Key) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.getLocked(k)
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return v, ok
}

// recheck is Get without counting a hit or a miss, for a second look
// at a key whose lookup was already counted.
func (c *Cache) recheck(k canon.Key) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.getLocked(k)
}

func (c *Cache) getLocked(k canon.Key) ([]byte, bool) {
	el, ok := c.items[k]
	if !ok {
		return nil, false
	}
	e, ok := c.liveLocked(el)
	if !ok {
		return nil, false
	}
	return e.val, true
}

// GetAlias returns the canonical key and payload of the entry d aliases,
// marking it most recently used; a hit counts in Hits and AliasHits. A
// miss counts nothing: the caller goes on to the canonical lookup, which
// counts it.
func (c *Cache) GetAlias(d BodyDigest) (canon.Key, []byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.aliases[d]
	if !ok {
		return "", nil, false
	}
	e, ok := c.liveLocked(el)
	if !ok {
		return "", nil, false
	}
	c.hits++
	c.aliasHits++
	return e.key, e.val, true
}

// liveLocked returns el's entry moved to the front, or removes it (and
// its aliases) when its TTL has passed.
func (c *Cache) liveLocked(el *list.Element) (*cacheEntry, bool) {
	e := el.Value.(*cacheEntry)
	if !e.expires.IsZero() && c.now().After(e.expires) {
		c.removeLocked(el)
		c.expired++
		return nil, false
	}
	c.ll.MoveToFront(el)
	return e, true
}

// AddAlias makes d find the entry cached under k. It does nothing for
// the zero digest, a digest already aliased, or a key no longer cached
// (evicted, or never cached because it was too large). An entry holding
// maxAliases digests drops its oldest; a new alias is charged against
// MaxBytes and may evict least-recently-used entries.
func (c *Cache) AddAlias(d BodyDigest, k canon.Key) {
	if d == (BodyDigest{}) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return
	}
	if _, dup := c.aliases[d]; dup {
		return
	}
	e := el.Value.(*cacheEntry)
	if n := len(e.aliases); n == maxAliases {
		delete(c.aliases, e.aliases[0])
		copy(e.aliases, e.aliases[1:])
		e.aliases[n-1] = d
	} else {
		if c.maxB > 0 && e.size+aliasSize > c.maxB {
			return
		}
		e.size += aliasSize
		c.bytes += aliasSize
		e.aliases = append(e.aliases, d)
	}
	if c.aliases == nil {
		c.aliases = make(map[BodyDigest]*list.Element)
	}
	c.aliases[d] = el
	c.evictLocked()
}

// Put caches payload v under k, replacing any previous entry, then
// evicts least-recently-used entries until both bounds hold. A payload
// that alone exceeds MaxBytes is not cached.
func (c *Cache) Put(k canon.Key, v []byte) {
	size := int64(len(k)) + int64(len(v)) + entryOverhead
	if c.maxB > 0 && size > c.maxB {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.removeLocked(el)
	}
	e := &cacheEntry{key: k, val: v, size: size}
	if c.ttl > 0 {
		e.expires = c.now().Add(c.ttl)
	}
	c.items[k] = c.ll.PushFront(e)
	c.bytes += size
	c.evictLocked()
}

// evictLocked removes least-recently-used entries until both bounds hold.
func (c *Cache) evictLocked() {
	for (c.max > 0 && c.ll.Len() > c.max) || (c.maxB > 0 && c.bytes > c.maxB) {
		back := c.ll.Back()
		if back == nil {
			break
		}
		c.removeLocked(back)
		c.evicted++
	}
}

// removeLocked deletes el's entry together with its aliases.
func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	for _, d := range e.aliases {
		delete(c.aliases, d)
	}
	c.bytes -= e.size
}

// Len returns the current entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Entries    int     `json:"entries"`
	Aliases    int     `json:"aliases"`
	Bytes      int64   `json:"bytes"`
	MaxEntries int     `json:"maxEntries"`
	MaxBytes   int64   `json:"maxBytes"`
	TTLSeconds float64 `json:"ttlSeconds"`
	Hits       uint64  `json:"hits"`
	// AliasHits counts the hits found by body digest, before decoding;
	// they are included in Hits.
	AliasHits   uint64 `json:"aliasHits"`
	Misses      uint64 `json:"misses"`
	Evictions   uint64 `json:"evictions"`
	Expirations uint64 `json:"expirations"`
	// HitRate is hits/(hits+misses); 0 before any lookup.
	HitRate float64 `json:"hitRate"`
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := CacheStats{
		Entries:     c.ll.Len(),
		Aliases:     len(c.aliases),
		Bytes:       c.bytes,
		MaxEntries:  c.max,
		MaxBytes:    c.maxB,
		TTLSeconds:  c.ttl.Seconds(),
		Hits:        c.hits,
		AliasHits:   c.aliasHits,
		Misses:      c.misses,
		Evictions:   c.evicted,
		Expirations: c.expired,
	}
	if total := s.Hits + s.Misses; total > 0 {
		s.HitRate = float64(s.Hits) / float64(total)
	}
	return s
}
