package serve

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"testing"
	"time"

	"geoalign"
)

// TestDigestFormsAgree pins the property the zero-copy binary hit path
// rests on: digesting the raw little-endian request bytes and digesting
// the decoded float64s produce the same key, so a binary hit never
// needs to decode the objective at all.
func TestDigestFormsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	seen := make(map[objDigest]bool)
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(300)
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64() * 1e6
		}
		df := digestFloats(v)
		db := digestBytesLE(appendFloats(nil, v))
		if df != db {
			t.Fatalf("trial %d (n=%d): digestFloats %x != digestBytesLE %x", trial, n, df, db)
		}
		seen[df] = true
	}
	// Sanity: 100 random objectives should not collide (the digest is
	// 128 bits; a collision here means the mixing is broken, not bad
	// luck).
	if len(seen) != 100 {
		t.Fatalf("digest collisions: %d distinct digests over 100 random objectives", len(seen))
	}
	// A one-ulp perturbation must move the digest.
	v := []float64{1, 2, 3}
	w := []float64{1, 2, 3.0000000000000004}
	if digestFloats(v) == digestFloats(w) {
		t.Fatal("one-ulp perturbation did not change the digest")
	}
}

// testCacheEntry builds an insertable entry whose shard is h1&15 and
// whose budget charge is 2*payload+len(name)+cacheEntryOverhead.
func testCacheEntry(name string, gen int, h1 uint64, payload int) (resultKey, *cacheEntry) {
	key := resultKey{name: name, gen: gen, dig: objDigest{h1: h1, h2: h1 ^ 0x9e3779b97f4a7c15}, n: payload}
	e := &cacheEntry{key: key, bin: make([]byte, payload), json: make([]byte, payload)}
	e.size = entrySize(key, e.bin, e.json)
	return key, e
}

// insertLeader drives the lookup→complete protocol for a key that must
// miss.
func insertLeader(t *testing.T, c *ResultCache, key resultKey, e *cacheEntry) {
	t.Helper()
	hit, f, leader := c.lookup(key)
	if hit != nil || !leader {
		t.Fatalf("lookup(%v): hit=%v leader=%v, want fresh leader", key, hit != nil, leader)
	}
	c.complete(key, f, e)
}

// TestResultCacheAccounting exercises hit/miss/eviction bookkeeping on
// one shard: all keys share h1's low bits, the per-shard budget holds
// exactly two entries, and a recently-touched entry survives the
// eviction that claims the cold one.
func TestResultCacheAccounting(t *testing.T) {
	const payload = 20
	_, probe := testCacheEntry("e", 1, 0, payload)
	size := probe.size // 2*payload + 1 + cacheEntryOverhead
	m := new(Metrics)
	c := newResultCache(2*size*cacheShards, m) // shard budget = two entries

	k1, e1 := testCacheEntry("e", 1, 0<<4, payload)
	k2, e2 := testCacheEntry("e", 1, 1<<4, payload)
	k3, e3 := testCacheEntry("e", 1, 2<<4, payload)

	insertLeader(t, c, k1, e1)
	if c.Len() != 1 || c.Bytes() != size {
		t.Fatalf("after first insert: len %d bytes %d, want 1 and %d", c.Len(), c.Bytes(), size)
	}
	if hit, _, _ := c.lookup(k1); hit != e1 {
		t.Fatal("re-lookup of inserted key did not hit")
	}
	insertLeader(t, c, k2, e2)

	// Touch k1 so k2 is the LRU victim when k3 overflows the shard.
	if hit, _, _ := c.lookup(k1); hit != e1 {
		t.Fatal("touch of k1 did not hit")
	}
	insertLeader(t, c, k3, e3)
	if c.Len() != 2 || c.Bytes() != 2*size {
		t.Fatalf("after eviction: len %d bytes %d, want 2 and %d", c.Len(), c.Bytes(), 2*size)
	}
	if hit, _, _ := c.lookup(k2); hit != nil {
		t.Fatal("LRU entry k2 survived an over-budget insert")
	}
	if hit, _, _ := c.lookup(k1); hit != e1 {
		t.Fatal("recently-touched k1 was evicted instead of the LRU entry")
	}
	if hit, _, _ := c.lookup(k3); hit != e3 {
		t.Fatal("freshly-inserted k3 missing")
	}

	// k2's re-miss above created a flight; resolve it so the shard's
	// flight table drains.
	if _, f, leader := c.lookup(k2); leader {
		t.Fatal("second k2 miss should have merged into the first's flight")
	} else if f == nil {
		t.Fatal("expected an in-flight entry for k2")
	}

	// An entry bigger than the whole shard budget must not wedge the
	// cache: it is admitted and immediately self-evicted.
	kBig, eBig := testCacheEntry("e", 1, 3<<4, int(2*size))
	hit, f, leader := c.lookup(kBig)
	if hit != nil || !leader {
		t.Fatal("big key should miss as leader")
	}
	c.complete(kBig, f, eBig)
	if c.Bytes() > 2*size {
		t.Fatalf("oversized entry left the shard over budget: %d > %d", c.Bytes(), 2*size)
	}

	if m.CacheBytes() != c.Bytes() {
		t.Fatalf("metrics bytes gauge %d != cache bytes %d", m.CacheBytes(), c.Bytes())
	}
	if m.CacheEvictions() == 0 {
		t.Fatal("evictions not counted")
	}
	wantMisses := m.CacheMisses()
	if wantMisses < 4 {
		t.Fatalf("miss counter %d, want at least the 4 leader lookups", wantMisses)
	}
}

// TestResultCachePurge pins the generation/name selectivity of the swap
// hook's eager invalidation: purge(name, keepGen) drops exactly the
// displaced generations of that name and nothing else.
func TestResultCachePurge(t *testing.T) {
	m := new(Metrics)
	c := newResultCache(1<<20, m)
	kA1, eA1 := testCacheEntry("a", 1, 1, 8)
	kA2, eA2 := testCacheEntry("a", 2, 2, 8)
	kB1, eB1 := testCacheEntry("b", 1, 3, 8)
	insertLeader(t, c, kA1, eA1)
	insertLeader(t, c, kA2, eA2)
	insertLeader(t, c, kB1, eB1)

	c.purge("a", 2)
	if hit, _, _ := c.lookup(kA1); hit != nil {
		t.Fatal("a/gen1 survived purge to gen 2")
	}
	if hit, _, _ := c.lookup(kA2); hit != eA2 {
		t.Fatal("a/gen2 (the kept generation) was purged")
	}
	if hit, _, _ := c.lookup(kB1); hit != eB1 {
		t.Fatal("purge of engine a dropped engine b's entry")
	}
	if m.CachePurged() != 1 {
		t.Fatalf("purged counter %d, want 1", m.CachePurged())
	}

	// Removal purges with keepGen 0: everything under the name dies.
	c.purge("b", 0)
	if hit, _, _ := c.lookup(kB1); hit != nil {
		t.Fatal("b/gen1 survived removal purge")
	}
	if got := c.Len(); got != 1 {
		t.Fatalf("len after purges = %d, want 1 (a/gen2)", got)
	}
}

// TestResultCacheSwapInvalidation runs invalidation end to end: a
// cached answer, a delta hot swap, and the requirement that the next
// request misses and serves the new generation's result.
func TestResultCacheSwapInvalidation(t *testing.T) {
	al := testAligner(t, 47, 60, 12, 3)
	s, hts := newTestServer(t, al, Config{ResultCacheBytes: 1 << 20})
	client := hts.Client()
	rng := rand.New(rand.NewSource(3))
	obj := randObjective(rng, al.SourceUnits())

	before, resp := postAlign(t, client, hts.URL, alignRequest{Engine: "test", Objective: obj})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first align: status %d", resp.StatusCode)
	}
	again, resp := postAlign(t, client, hts.URL, alignRequest{Engine: "test", Objective: obj})
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Geoalign-Cache") != "hit" {
		t.Fatalf("repeat align: status %d cache header %q, want 200 hit", resp.StatusCode, resp.Header.Get("X-Geoalign-Cache"))
	}
	if !floatsEqual(before.Target, again.Target) {
		t.Fatal("cache hit changed the answer")
	}
	if s.metrics.CacheHits() != 1 || s.metrics.CacheMisses() != 1 {
		t.Fatalf("hits %d misses %d, want 1 and 1", s.metrics.CacheHits(), s.metrics.CacheMisses())
	}

	d := geoalign.Delta{SourcePatches: []geoalign.SourcePatch{{Ref: 0, Row: 2, Value: 321.5}}}
	if _, resp := postDelta(t, client, hts.URL, "test", d, false); resp.StatusCode != http.StatusOK {
		t.Fatalf("delta: status %d", resp.StatusCode)
	}
	if s.metrics.CachePurged() == 0 || s.cache.Len() != 0 {
		t.Fatalf("swap did not purge: purged %d, len %d", s.metrics.CachePurged(), s.cache.Len())
	}

	want, err := al.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := want.Align(obj)
	if err != nil {
		t.Fatal(err)
	}
	after, resp := postAlign(t, client, hts.URL, alignRequest{Engine: "test", Objective: obj})
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Geoalign-Cache") != "" {
		t.Fatalf("post-swap align: status %d cache header %q, want 200 and a fresh solve", resp.StatusCode, resp.Header.Get("X-Geoalign-Cache"))
	}
	if !floatsEqual(after.Target, wantRes.Target) {
		t.Fatal("post-swap align served a stale or blended result")
	}

	// Removing the engine purges what the new generation cached.
	if s.cache.Len() == 0 {
		t.Fatal("post-swap align did not repopulate the cache")
	}
	s.registry.Remove("test")
	if s.cache.Len() != 0 {
		t.Fatalf("cache holds %d entries after engine removal", s.cache.Len())
	}
}

// TestSingleflightStorm throws 64 concurrent identical binary requests
// at a cold cache. Whatever the interleaving, exactly one may solve:
// one cache miss, one engine call carrying one objective, and
// the other 63 accounted as singleflight merges or cache hits — with
// all 64 response bodies byte-identical.
func TestSingleflightStorm(t *testing.T) {
	const storm = 64
	al := testAligner(t, 48, 60, 12, 3)
	s, hts := newTestServer(t, al, Config{ResultCacheBytes: 1 << 20})
	rng := rand.New(rand.NewSource(13))
	payload := appendFloats(nil, randObjective(rng, al.SourceUnits()))

	bodies := make([][]byte, storm)
	errs := make([]error, storm)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < storm; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := hts.Client().Post(hts.URL+"/v1/align?engine=test", contentTypeBinary, bytes.NewReader(payload))
			if err != nil {
				errs[g] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[g] = errStatus(resp.StatusCode)
				return
			}
			bodies[g], errs[g] = io.ReadAll(resp.Body)
		}()
	}
	close(start)
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", g, err)
		}
	}
	for g := 1; g < storm; g++ {
		if !bytes.Equal(bodies[g], bodies[0]) {
			t.Fatalf("response %d differs from response 0", g)
		}
	}
	if tg, wts, err := decodeBinaryResult(bodies[0]); err != nil || len(tg) != al.TargetUnits() || len(wts) != al.References() {
		t.Fatalf("response framing: %d targets %d weights err %v", len(tg), len(wts), err)
	}

	m := s.metrics
	if m.CacheMisses() != 1 {
		t.Fatalf("misses = %d, want exactly 1 solve for %d identical requests", m.CacheMisses(), storm)
	}
	if got := m.CacheHits() + m.SingleflightMerged(); got != storm-1 {
		t.Fatalf("hits %d + merged %d = %d, want %d", m.CacheHits(), m.SingleflightMerged(), got, storm-1)
	}
	if m.Batches() != 1 || m.BatchedRequests() != 1 {
		t.Fatalf("engine saw %d calls / %d objectives, want 1 / 1", m.Batches(), m.BatchedRequests())
	}
	if s.cache.Len() != 1 {
		t.Fatalf("cache len = %d, want 1", s.cache.Len())
	}
}

// TestCacheByteIdentity is the transparency property: with the cache
// on, every response — leader, hit, either protocol — is byte-for-byte
// what a cache-off server returns.
func TestCacheByteIdentity(t *testing.T) {
	al := testAligner(t, 49, 50, 10, 3)
	_, htsOn := newTestServer(t, al, Config{ResultCacheBytes: 1 << 20})
	_, htsOff := newTestServer(t, al, Config{})
	rng := rand.New(rand.NewSource(17))

	fetch := func(hts string, ct string, body []byte) ([]byte, string) {
		resp, err := http.DefaultClient.Post(hts+"/v1/align?engine=test", ct, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b, resp.Header.Get("X-Geoalign-Cache")
	}

	for trial := 0; trial < 8; trial++ {
		obj := randObjective(rng, al.SourceUnits())
		jsonBody := mustJSON(t, alignRequest{Engine: "test", Objective: obj})
		binBody := appendFloats(nil, obj)

		wantJSON, _ := fetch(htsOff.URL, contentTypeJSON, jsonBody)
		wantBin, _ := fetch(htsOff.URL, contentTypeBinary, binBody)

		cold, how := fetch(htsOn.URL, contentTypeJSON, jsonBody)
		if how != "" {
			t.Fatalf("trial %d: first cached-server request tagged %q, want a fresh solve", trial, how)
		}
		if !bytes.Equal(cold, wantJSON) {
			t.Fatalf("trial %d: leader JSON response differs from cache-off server", trial)
		}
		warm, how := fetch(htsOn.URL, contentTypeJSON, jsonBody)
		if how != "hit" {
			t.Fatalf("trial %d: JSON repeat tagged %q, want hit", trial, how)
		}
		if !bytes.Equal(warm, wantJSON) {
			t.Fatalf("trial %d: JSON hit differs from cache-off server", trial)
		}
		// The two wire forms of one objective share a key (their digests
		// agree by construction), so the first binary request is already a
		// cross-protocol hit — and must still match the cache-off bytes.
		binGot, how := fetch(htsOn.URL, contentTypeBinary, binBody)
		if how != "hit" {
			t.Fatalf("trial %d: binary request after JSON tagged %q, want cross-protocol hit", trial, how)
		}
		if !bytes.Equal(binGot, wantBin) {
			t.Fatalf("trial %d: binary hit differs from cache-off server", trial)
		}
	}
}

// TestResultCacheDeltaSwapGenerationExact is the cache's version of the
// serving-layer race test (run under -race in CI): align traffic over a
// small set of repeated objectives — so hits, merges, and leader solves
// all occur — races a stream of delta hot swaps. Every response must
// match one published generation's result for its objective bit for
// bit: a cache that ever splices generation A's bytes onto generation
// B's key fails the match.
func TestResultCacheDeltaSwapGenerationExact(t *testing.T) {
	const gens = 6
	const nObjs = 3
	al := testAligner(t, 46, 80, 16, 3)
	rng := rand.New(rand.NewSource(11))
	objs := make([][]float64, nObjs)
	for o := range objs {
		objs[o] = randObjective(rng, al.SourceUnits())
	}

	deltas := make([]geoalign.Delta, gens)
	expected := make([][][]float64, gens+1) // [generation][objective]target
	cur := al
	align := func(g int) {
		expected[g] = make([][]float64, nObjs)
		for o, obj := range objs {
			res, err := cur.Align(obj)
			if err != nil {
				t.Fatal(err)
			}
			expected[g][o] = res.Target
		}
	}
	align(0)
	for g := 0; g < gens; g++ {
		deltas[g] = geoalign.Delta{SourcePatches: []geoalign.SourcePatch{
			{Ref: g % 3, Row: (g * 7) % cur.SourceUnits(), Value: 60 + 13*float64(g)},
		}}
		var err error
		if cur, err = cur.ApplyDelta(deltas[g]); err != nil {
			t.Fatal(err)
		}
		align(g + 1)
	}

	s, hts := newTestServer(t, al, Config{ResultCacheBytes: 1 << 20})
	client := hts.Client()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				o := (w + i) % nObjs
				out, resp := postAlign(t, client, hts.URL, alignRequest{Engine: "test", Objective: objs[o]})
				if resp.StatusCode != http.StatusOK {
					errc <- errStatus(resp.StatusCode)
					return
				}
				match := false
				for g := range expected {
					if floatsEqual(out.Target, expected[g][o]) {
						match = true
						break
					}
				}
				if !match {
					errc <- errNoGeneration
					return
				}
			}
		}()
	}
	for g := 0; g < gens; g++ {
		if _, resp := postDelta(t, client, hts.URL, "test", deltas[g], g%2 == 1); resp.StatusCode != http.StatusOK {
			t.Fatalf("delta %d: status %d", g, resp.StatusCode)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// The cache must have actually engaged for this to have tested
	// anything.
	if s.metrics.CacheHits() == 0 {
		t.Fatal("no cache hits during the storm; the race test exercised nothing")
	}
	// Settled traffic serves the final generation exactly, and so does
	// its cached repeat.
	for o, obj := range objs {
		for rep := 0; rep < 2; rep++ {
			out, resp := postAlign(t, client, hts.URL, alignRequest{Engine: "test", Objective: obj})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("final align obj %d rep %d: status %d", o, rep, resp.StatusCode)
			}
			if !floatsEqual(out.Target, expected[gens][o]) {
				t.Fatalf("final align obj %d rep %d does not match the last generation", o, rep)
			}
		}
	}
}

type errStatus int

func (e errStatus) Error() string { return "align status " + strconv.Itoa(int(e)) }

type sentinelErr string

func (e sentinelErr) Error() string { return string(e) }

const errNoGeneration = sentinelErr("align response matches no published generation")

// TestBufPoolHygiene pins the codec pool's two retention rules: an
// oversized buffer is never re-pooled (putBuf drops it), and a pooled
// buffer too small for a getBuf ask goes back into circulation instead
// of leaking out. GC is disabled for the test body so sync.Pool behaves
// deterministically.
func TestBufPoolHygiene(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	drain := func() {
		for {
			if _, ok := bufPool.Get().([]byte); !ok {
				return
			}
		}
	}
	drain()

	putBuf(make([]byte, maxPooledBuf+1))
	if b, ok := bufPool.Get().([]byte); ok && cap(b) > maxPooledBuf {
		t.Fatalf("oversized buffer (cap %d) was retained by the pool", cap(b))
	}

	// A pooled buffer too small for a getBuf ask must go back into
	// circulation. Under -race sync.Pool drops Puts at random, so the
	// round trip is retried; one success proves the re-pool path.
	for attempt := 0; ; attempt++ {
		drain()
		small := make([]byte, 64)
		small[0] = 0xAB
		putBuf(small)
		big := getBuf(128)
		if len(big) != 128 || cap(big) < 128 {
			t.Fatalf("getBuf(128) returned len %d cap %d", len(big), cap(big))
		}
		back := getBuf(16)
		if len(back) != 16 {
			t.Fatalf("getBuf(16) returned len %d", len(back))
		}
		putBuf(big)
		putBuf(back)
		if back[:cap(back)][0] == 0xAB {
			break // the too-small buffer came back around
		}
		if attempt == 50 {
			t.Fatal("too-small pooled buffer was discarded by getBuf instead of re-pooled")
		}
	}
}

// TestAlignNonFiniteObjective: a binary objective holding NaN or ±Inf
// is a client error, and the cache never stores the failure — repeating
// the request solves (and fails) again instead of hitting.
func TestAlignNonFiniteObjective(t *testing.T) {
	al := testAligner(t, 53, 40, 8, 3)
	s, hts := newTestServer(t, al, Config{ResultCacheBytes: 1 << 20})
	obj := randObjective(rand.New(rand.NewSource(5)), al.SourceUnits())
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		obj[3] = bad
		for attempt := 0; attempt < 2; attempt++ {
			resp, err := http.DefaultClient.Post(hts.URL+"/v1/align?engine=test", contentTypeBinary, bytes.NewReader(appendFloats(nil, obj)))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%v, attempt %d: status %d, want 400", bad, attempt, resp.StatusCode)
			}
			if how := resp.Header.Get("X-Geoalign-Cache"); how != "" {
				t.Fatalf("%v, attempt %d: answered from cache (%q)", bad, attempt, how)
			}
		}
	}
	if s.cache.Len() != 0 || s.metrics.CacheHits() != 0 {
		t.Fatalf("cache holds %d entries after %d hits", s.cache.Len(), s.metrics.CacheHits())
	}
}

// TestCacheJSONEncodedOncePerEntry: binary traffic never encodes JSON,
// and the first JSON response for an entry encodes it exactly once. A
// binary miss stores only the binary framing; a JSON hit on that entry
// returns the bytes a cache-off server's writeJSON produces, attaches
// them to the entry and grows the shard's byte charge by their length;
// a second JSON hit reuses the attached bytes and charges nothing.
func TestCacheJSONEncodedOncePerEntry(t *testing.T) {
	al := testAligner(t, 57, 50, 10, 3)
	s, htsOn := newTestServer(t, al, Config{ResultCacheBytes: 1 << 20})
	_, htsOff := newTestServer(t, al, Config{})
	obj := randObjective(rand.New(rand.NewSource(23)), al.SourceUnits())
	jsonReq := mustJSON(t, alignRequest{Engine: "test", Objective: obj})

	fetch := func(url, ct string, body []byte) ([]byte, string) {
		t.Helper()
		resp, err := http.DefaultClient.Post(url+"/v1/align?engine=test", ct, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, b)
		}
		return b, resp.Header.Get("X-Geoalign-Cache")
	}
	wantJSON, _ := fetch(htsOff.URL, contentTypeJSON, jsonReq)

	if _, how := fetch(htsOn.URL, contentTypeBinary, appendFloats(nil, obj)); how != "" {
		t.Fatalf("binary request tagged %q, want a fresh solve", how)
	}
	in, err := s.registry.AcquireInstance("test")
	if err != nil {
		t.Fatal(err)
	}
	key := cacheKeyFloats("test", in.Generation(), obj)
	in.release()
	sh := s.cache.shardFor(key)
	state := func() (*cacheEntry, []byte, int64) {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		e := sh.entries[key]
		if e == nil {
			t.Fatal("solved entry is not cached")
		}
		return e, e.json, sh.bytes
	}
	e, body, before := state()
	if body != nil {
		t.Fatal("a binary miss encoded a JSON body")
	}

	got, how := fetch(htsOn.URL, contentTypeJSON, jsonReq)
	if how != "hit" || !bytes.Equal(got, wantJSON) {
		t.Fatalf("first JSON hit (tag %q) differs from writeJSON's bytes", how)
	}
	e1, body1, after := state()
	if e1 != e || !bytes.Equal(body1, wantJSON) {
		t.Fatal("the JSON body was not attached to the cached entry")
	}
	if after-before != int64(len(wantJSON)) {
		t.Fatalf("shard bytes grew by %d, want len(json) = %d", after-before, len(wantJSON))
	}

	got, how = fetch(htsOn.URL, contentTypeJSON, jsonReq)
	if how != "hit" || !bytes.Equal(got, wantJSON) {
		t.Fatalf("second JSON hit (tag %q) differs from writeJSON's bytes", how)
	}
	_, body2, again := state()
	if &body2[0] != &body1[0] {
		t.Fatal("the second JSON hit encoded the body again")
	}
	if again != after {
		t.Fatalf("shard bytes moved from %d to %d on the second JSON hit", after, again)
	}
	if s.cache.Bytes() != s.metrics.CacheBytes() {
		t.Fatalf("metrics bytes gauge %d != cache bytes %d", s.metrics.CacheBytes(), s.cache.Bytes())
	}
}
