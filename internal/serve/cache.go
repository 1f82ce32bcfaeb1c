package serve

import (
	"encoding/binary"
	"math"
	"sync"

	"geoalign/internal/hashmix"
)

// The result cache is the steady-state serving fast path. Alignment is
// fully deterministic given an engine generation: the same objective
// against the same published engine always produces the same bytes, so
// a repeated answer is pure recomputation — the paper's "precompute
// everything attribute-independent once" argument (§4.3) extended one
// level up the stack, from precomputed engines to precomputed answers.
//
// Keys are (engine name, registry generation, digest of the canonical
// little-endian objective bytes). The generation component makes
// invalidation free: a delta hot-swap bumps the generation, so every
// entry cached against the old engine dies by key mismatch. Stale
// entries are additionally purged eagerly by the registry's swap hook
// (see Server wiring) so the memory accounting stays honest between
// swaps; anything that slips past the purge is evicted lazily by the
// LRU.
//
// Entries store the already-encoded binary response body, so a binary
// hit is one shard-lock lookup plus one Write — no solve, no float
// formatting, no allocation. Binary traffic never encodes JSON; the
// JSON body is encoded once per entry, by the first JSON response that
// needs it, and kept beside the binary one. Concurrent identical misses
// collapse into one coalesced solve through a per-key singleflight
// table.

// cacheShards is the shard count (power of two). Sharding keeps the
// per-hit critical section (map lookup + LRU splice) from serialising
// concurrent readers behind one mutex.
const cacheShards = 16

// cacheEntryOverhead approximates the per-entry bookkeeping bytes
// charged against the budget on top of the encoded bodies: the entry
// struct, its map bucket share, and the key.
const cacheEntryOverhead = 160

// objDigest is a 128-bit digest of an objective's canonical
// little-endian byte representation.
type objDigest struct {
	h1, h2 uint64
}

// resultKey identifies one cacheable answer.
type resultKey struct {
	name string
	gen  int
	dig  objDigest
	n    int // objective length in float64s (cheap extra collision guard)
}

// cacheEntry is one cached answer. Its binary framing is immutable
// after insertion; its JSON body is attached once, under the shard
// lock, by the first JSON response for it. Eviction only drops the
// cache's reference, so a concurrent writer can keep streaming an
// evicted entry's bytes.
type cacheEntry struct {
	key     resultKey
	bin     []byte // encodeBinaryResult framing
	batched int    // size of the coalesced batch that solved it

	// Guarded by the shard's mu.
	json []byte // full JSON response body, trailing newline included; nil until first needed
	size int64  // budget charge: len(bin)+len(json)+key+overhead

	prev, next *cacheEntry // shard LRU list; nil-terminated both ends
}

// cacheFlight is one in-flight solve that identical concurrent misses
// merge into. The leader publishes entry or err and closes done.
type cacheFlight struct {
	done  chan struct{}
	entry *cacheEntry
	err   error
}

type cacheShard struct {
	mu      sync.Mutex
	entries map[resultKey]*cacheEntry
	flights map[resultKey]*cacheFlight
	head    *cacheEntry // most recently used
	tail    *cacheEntry // least recently used
	bytes   int64
}

// ResultCache is a bounded, sharded, generation-keyed LRU of encoded
// align responses with per-key singleflight. All methods are safe for
// concurrent use.
type ResultCache struct {
	shards      [cacheShards]cacheShard
	shardBudget int64
	metrics     *Metrics
}

// newResultCache builds a cache with the given total byte budget,
// split evenly across shards. metrics may be nil (unit tests).
func newResultCache(maxBytes int64, m *Metrics) *ResultCache {
	c := &ResultCache{shardBudget: maxBytes / cacheShards, metrics: m}
	if c.shardBudget < 1 {
		c.shardBudget = 1
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[resultKey]*cacheEntry)
		c.shards[i].flights = make(map[resultKey]*cacheFlight)
	}
	return c
}

func (c *ResultCache) shardFor(key resultKey) *cacheShard {
	return &c.shards[key.dig.h1&(cacheShards-1)]
}

// lookup resolves a key to one of three outcomes: a hit (entry
// non-nil), joining an in-flight solve as a follower (flight non-nil,
// leader false), or winning the right to solve as the leader (flight
// non-nil, leader true). The leader MUST later call complete or abort
// on the returned flight, or followers hang.
func (c *ResultCache) lookup(key resultKey) (e *cacheEntry, f *cacheFlight, leader bool) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	if e = sh.entries[key]; e != nil {
		sh.moveToFront(e)
		sh.mu.Unlock()
		if c.metrics != nil {
			c.metrics.cacheHits.Add(1)
		}
		return e, nil, false
	}
	if f = sh.flights[key]; f != nil {
		sh.mu.Unlock()
		if c.metrics != nil {
			c.metrics.singleflightMerged.Add(1)
		}
		return nil, f, false
	}
	f = &cacheFlight{done: make(chan struct{})}
	sh.flights[key] = f
	sh.mu.Unlock()
	if c.metrics != nil {
		c.metrics.cacheMisses.Add(1)
	}
	return nil, f, true
}

// complete publishes the leader's solved entry: the flight is resolved
// for its followers and the entry inserted (evicting LRU entries while
// the shard is over budget — possibly the new entry itself, when it
// alone exceeds the shard budget).
func (c *ResultCache) complete(key resultKey, f *cacheFlight, e *cacheEntry) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	if sh.flights[key] == f {
		delete(sh.flights, key)
	}
	f.entry = e
	if old := sh.entries[key]; old != nil {
		// A retried leader can race a purge-and-refill; replace without
		// counting an eviction.
		sh.unlink(old)
		sh.bytes -= old.size
		if c.metrics != nil {
			c.metrics.cacheBytes.Add(-old.size)
			c.metrics.cacheEntries.Add(-1)
		}
	}
	sh.entries[key] = e
	sh.pushFront(e)
	sh.bytes += e.size
	if c.metrics != nil {
		c.metrics.cacheBytes.Add(e.size)
		c.metrics.cacheEntries.Add(1)
	}
	c.trimLocked(sh)
	sh.mu.Unlock()
	close(f.done)
}

// trimLocked evicts LRU entries while the shard is over budget. The
// caller holds sh.mu.
func (c *ResultCache) trimLocked(sh *cacheShard) {
	for sh.bytes > c.shardBudget && sh.tail != nil {
		c.evictLocked(sh, sh.tail)
		if c.metrics != nil {
			c.metrics.cacheEvictions.Add(1)
		}
	}
}

// jsonBody returns e's JSON response body, encoding it on the first
// call for the entry. The encode runs outside the shard lock; the body
// is attached under it and, if e is still cached, charged to the
// budget. Concurrent first calls may both encode, but only the first
// attached body is kept and charged.
func (c *ResultCache) jsonBody(e *cacheEntry) ([]byte, error) {
	sh := c.shardFor(e.key)
	sh.mu.Lock()
	body := e.json
	sh.mu.Unlock()
	if body != nil {
		return body, nil
	}
	body, err := e.renderJSON()
	if err != nil {
		return nil, err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e.json != nil {
		return e.json, nil
	}
	e.json = body
	if sh.entries[e.key] == e {
		n := int64(len(body))
		e.size += n
		sh.bytes += n
		if c.metrics != nil {
			c.metrics.cacheBytes.Add(n)
		}
		c.trimLocked(sh)
	}
	return body, nil
}

// abort resolves a flight whose leader could not produce an entry
// (gate shed, solve error, cancelled client). Followers observe err;
// nothing is cached.
func (c *ResultCache) abort(key resultKey, f *cacheFlight, err error) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	if sh.flights[key] == f {
		delete(sh.flights, key)
	}
	f.err = err
	sh.mu.Unlock()
	close(f.done)
}

// purge eagerly drops every entry for the named engine that is not at
// keepGen. The registry's swap hook calls it with the new generation
// (0 on removal, dropping everything under the name), so a hot swap
// frees the displaced generation's cache memory immediately instead of
// waiting for LRU pressure.
func (c *ResultCache) purge(name string, keepGen int) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for key, e := range sh.entries {
			if key.name == name && key.gen != keepGen {
				c.evictLocked(sh, e)
				if c.metrics != nil {
					c.metrics.cachePurged.Add(1)
				}
			}
		}
		sh.mu.Unlock()
	}
}

// evictLocked removes e from the shard and maintains the byte and
// entry gauges. The caller holds sh.mu and attributes the removal to
// its own counter (budget eviction vs generation purge) so the two
// never double-count one entry.
func (c *ResultCache) evictLocked(sh *cacheShard, e *cacheEntry) {
	delete(sh.entries, e.key)
	sh.unlink(e)
	sh.bytes -= e.size
	if c.metrics != nil {
		c.metrics.cacheBytes.Add(-e.size)
		c.metrics.cacheEntries.Add(-1)
	}
}

// Bytes reports the cache's current total budget charge.
func (c *ResultCache) Bytes() int64 {
	var total int64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		total += sh.bytes
		sh.mu.Unlock()
	}
	return total
}

// Len reports the number of cached entries.
func (c *ResultCache) Len() int {
	var n int
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// --- intrusive LRU list (head = most recent) ---

func (sh *cacheShard) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *cacheShard) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sh *cacheShard) moveToFront(e *cacheEntry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}

// --- objective digest ---
//
// The digest is defined over the objective's canonical little-endian
// byte representation, consumed as 64-bit words: word i is the LE
// load of bytes [8i, 8i+8), which for a []float64 objective is exactly
// math.Float64bits of element i. The two input forms (raw binary
// request bytes, decoded JSON float64s) therefore digest identically —
// pinned by TestDigestFormsAgree.
//
// Eight independent FNV-1a lanes break the multiply dependency chain —
// each lane's xor-multiply recurrence has ~3 cycles of latency, so
// eight in flight keep the multiplier saturated (the digest sits on
// the zero-alloc hit path, in front of a ~240KB objective at US
// scale) — and a 128-bit finish over the lanes plus the length makes
// accidental key collisions, which would serve the wrong answer,
// negligible.

const fnvPrime = 0x00000100000001b3

var digestSeed = [8]uint64{
	0xcbf29ce484222325, // FNV-64 offset basis
	0x9e3779b97f4a7c15,
	0xff51afd7ed558ccd,
	0xc4ceb9fe1a85ec53,
	0xbf58476d1ce4e5b9,
	0x94d049bb133111eb,
	0x2545f4914f6cdd1d,
	0xd6e8feb86659fd93,
}

func digestFinish(l [8]uint64, n int) objDigest {
	h1 := l[0]
	h1 = (h1 ^ l[1]) * fnvPrime
	h1 = (h1 ^ l[2]) * fnvPrime
	h1 = (h1 ^ l[3]) * fnvPrime
	h1 = (h1 ^ l[4]) * fnvPrime
	h1 = (h1 ^ l[5]) * fnvPrime
	h1 = (h1 ^ l[6]) * fnvPrime
	h1 = (h1 ^ l[7]) * fnvPrime
	h1 ^= uint64(n)
	h2 := hashmix.Fmix64(l[0] + 3*l[1] + 5*l[2] + 7*l[3] + 9*l[4] + 11*l[5] + 13*l[6] + 15*l[7] + uint64(n))
	return objDigest{h1: hashmix.Fmix64(h1), h2: h2}
}

// digestBytesLE digests a raw binary objective payload. len(b) must be
// a multiple of 8 (the handler validates before keying). The main loop
// advances the slice instead of indexing with 8*i so every load has a
// constant offset under one length guard — the variable-index form
// bounds-checks each load and runs at half the throughput.
func digestBytesLE(b []byte) objDigest {
	l0, l1, l2, l3 := digestSeed[0], digestSeed[1], digestSeed[2], digestSeed[3]
	l4, l5, l6, l7 := digestSeed[4], digestSeed[5], digestSeed[6], digestSeed[7]
	n := len(b) / 8
	for len(b) >= 64 {
		l0 = (l0 ^ binary.LittleEndian.Uint64(b)) * fnvPrime
		l1 = (l1 ^ binary.LittleEndian.Uint64(b[8:])) * fnvPrime
		l2 = (l2 ^ binary.LittleEndian.Uint64(b[16:])) * fnvPrime
		l3 = (l3 ^ binary.LittleEndian.Uint64(b[24:])) * fnvPrime
		l4 = (l4 ^ binary.LittleEndian.Uint64(b[32:])) * fnvPrime
		l5 = (l5 ^ binary.LittleEndian.Uint64(b[40:])) * fnvPrime
		l6 = (l6 ^ binary.LittleEndian.Uint64(b[48:])) * fnvPrime
		l7 = (l7 ^ binary.LittleEndian.Uint64(b[56:])) * fnvPrime
		b = b[64:]
	}
	l := [8]uint64{l0, l1, l2, l3, l4, l5, l6, l7}
	for j := 0; len(b) >= 8; j++ {
		l[j] = (l[j] ^ binary.LittleEndian.Uint64(b)) * fnvPrime
		b = b[8:]
	}
	return digestFinish(l, n)
}

// digestFloats digests a decoded objective, word-identical to
// digestBytesLE over appendFloats(nil, v).
func digestFloats(v []float64) objDigest {
	l0, l1, l2, l3 := digestSeed[0], digestSeed[1], digestSeed[2], digestSeed[3]
	l4, l5, l6, l7 := digestSeed[4], digestSeed[5], digestSeed[6], digestSeed[7]
	n := len(v)
	for len(v) >= 8 {
		l0 = (l0 ^ math.Float64bits(v[0])) * fnvPrime
		l1 = (l1 ^ math.Float64bits(v[1])) * fnvPrime
		l2 = (l2 ^ math.Float64bits(v[2])) * fnvPrime
		l3 = (l3 ^ math.Float64bits(v[3])) * fnvPrime
		l4 = (l4 ^ math.Float64bits(v[4])) * fnvPrime
		l5 = (l5 ^ math.Float64bits(v[5])) * fnvPrime
		l6 = (l6 ^ math.Float64bits(v[6])) * fnvPrime
		l7 = (l7 ^ math.Float64bits(v[7])) * fnvPrime
		v = v[8:]
	}
	l := [8]uint64{l0, l1, l2, l3, l4, l5, l6, l7}
	for j := 0; len(v) > 0; j++ {
		l[j] = (l[j] ^ math.Float64bits(v[0])) * fnvPrime
		v = v[1:]
	}
	return digestFinish(l, n)
}

// cacheKeyBytes keys a raw binary objective payload.
func cacheKeyBytes(name string, gen int, raw []byte) resultKey {
	return resultKey{name: name, gen: gen, dig: digestBytesLE(raw), n: len(raw) / 8}
}

// cacheKeyFloats keys a decoded objective.
func cacheKeyFloats(name string, gen int, objective []float64) resultKey {
	return resultKey{name: name, gen: gen, dig: digestFloats(objective), n: len(objective)}
}

// entrySize is the budget charge for an entry under key.
func entrySize(key resultKey, bin, json []byte) int64 {
	return int64(len(bin)) + int64(len(json)) + int64(len(key.name)) + cacheEntryOverhead
}
