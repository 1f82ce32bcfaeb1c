package serve

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"geoalign"
	"geoalign/internal/synth"
)

// The serving benchmark fixture is the paper's US-scale problem (30238
// ZCTA-like sources, 3142 county-like targets, 7 references) — built
// once and shared, since engine construction is not what is measured.
var (
	benchOnce    sync.Once
	benchAligner *geoalign.Aligner
)

func benchEngine(b *testing.B) *geoalign.Aligner {
	b.Helper()
	benchOnce.Do(func() {
		rng := rand.New(rand.NewSource(9))
		p := synth.ScalingProblem(rng, 30238, 3142, 7)
		refs := make([]geoalign.Reference, len(p.References))
		for k, r := range p.References {
			xw := geoalign.NewCrosswalk(r.DM.Rows, r.DM.Cols)
			for i := 0; i < r.DM.Rows; i++ {
				cols, vals := r.DM.Row(i)
				for t, j := range cols {
					if err := xw.Add(i, j, vals[t]); err != nil {
						panic(err)
					}
				}
			}
			refs[k] = geoalign.Reference{Name: r.Name, Crosswalk: xw}
		}
		al, err := geoalign.NewAligner(refs, nil)
		if err != nil {
			panic(err)
		}
		benchAligner = al
	})
	return benchAligner
}

// BenchmarkServeAlign measures end-to-end throughput for 32 concurrent
// clients posting binary single-attribute requests against the
// US-scale engine. One op is one wave: every client fires a request at
// once and the op ends when all 32 responses are in — so ns/op is the
// wall time to serve 32 concurrent requests, valid at any -benchtime
// (divide by 32 for per-request cost). In the coalesced variant the
// first arrivals of a wave take the instance's free solve slots and
// the rest, arriving while those are busy, share one warm-started
// batch solve; uncoalesced (MaxBatch=1) solves each request alone —
// the gap is the serving layer's reason to exist.
func BenchmarkServeAlign(b *testing.B) {
	const clients = 32
	al := benchEngine(b)
	rng := rand.New(rand.NewSource(99))
	payloads := make([][]byte, clients)
	for i := range payloads {
		obj := make([]float64, al.SourceUnits())
		for j := range obj {
			obj[j] = rng.Float64() * 1e4
		}
		payloads[i] = appendFloats(nil, obj)
	}

	run := func(b *testing.B, cfg Config) {
		reg := NewRegistry()
		if err := reg.Register("us", al); err != nil {
			b.Fatal(err)
		}
		s := NewServer(reg, cfg)
		hts := httptest.NewServer(s.Handler())
		defer func() {
			hts.Close()
			s.Shutdown()
		}()
		client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients * 2}}
		post := func(payload []byte) {
			resp, err := client.Post(hts.URL+"/v1/align?engine=us", contentTypeBinary, bytes.NewReader(payload))
			if err != nil {
				b.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Errorf("status %d", resp.StatusCode)
			}
		}
		// Unmeasured warm-up wave: opens the keep-alive connections and
		// faults in the engine's scratch pools.
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) { defer wg.Done(); post(payloads[c]) }(c)
		}
		wg.Wait()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) { defer wg.Done(); post(payloads[c]) }(c)
			}
			wg.Wait()
		}
	}

	b.Run("uncoalesced", func(b *testing.B) {
		run(b, Config{MaxBatch: 1, MaxInFlight: 64})
	})
	b.Run("coalesced", func(b *testing.B) {
		run(b, Config{MaxBatch: clients, MaxInFlight: 64})
	})

	// The cached/cold pair isolates the result cache's win from socket
	// cost: both dispatch waves straight into the handler via ServeHTTP
	// (no loopback HTTP), so cold is the in-process floor of the
	// coalesced solve path and cached is the same wave answered entirely
	// from stored bytes. Cold rewrites each payload's first float every
	// wave to guarantee misses.
	runDirect := func(b *testing.B, cfg Config, perturb bool) {
		reg := NewRegistry()
		if err := reg.Register("us", al); err != nil {
			b.Fatal(err)
		}
		s := NewServer(reg, cfg)
		defer s.Shutdown()
		h := s.Handler()
		// Each "client" is a parsed request reused across waves with its
		// body reader rewound — the direct-dispatch analogue of a warm
		// keep-alive connection.
		readers := make([]*bytes.Reader, clients)
		reqs := make([]*http.Request, clients)
		writers := make([]*discardResponseWriter, clients)
		for c := range reqs {
			readers[c] = bytes.NewReader(payloads[c])
			reqs[c] = httptest.NewRequest(http.MethodPost, "/v1/align?engine=us", readers[c])
			reqs[c].Header.Set("Content-Type", contentTypeBinary)
			writers[c] = &discardResponseWriter{header: make(http.Header, 4)}
		}
		post := func(c int) {
			readers[c].Reset(payloads[c])
			w := writers[c]
			clear(w.header)
			w.status = 0
			h.ServeHTTP(w, reqs[c])
			if w.status != 0 && w.status != http.StatusOK {
				b.Errorf("status %d", w.status)
			}
		}
		wave := func() {
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) { defer wg.Done(); post(c) }(c)
			}
			wg.Wait()
		}
		wave() // warm-up: scratch pools, and for cached the entries themselves
		var ctr uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if perturb {
				for c := range payloads {
					ctr++
					binary.LittleEndian.PutUint64(payloads[c], math.Float64bits(float64(ctr)))
				}
			}
			wave()
		}
	}
	b.Run("cold", func(b *testing.B) {
		runDirect(b, Config{MaxBatch: clients, MaxInFlight: 64, ResultCacheBytes: 1 << 30}, true)
	})
	b.Run("cached", func(b *testing.B) {
		runDirect(b, Config{MaxBatch: clients, MaxInFlight: 64, ResultCacheBytes: 1 << 30}, false)
	})
}

// discardResponseWriter is the no-op ResponseWriter behind the direct
// in-process benchmark variants.
type discardResponseWriter struct {
	header http.Header
	status int
}

func (w *discardResponseWriter) Header() http.Header         { return w.header }
func (w *discardResponseWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardResponseWriter) WriteHeader(code int)        { w.status = code }

// BenchmarkResultCacheHit is the microbenchmark behind the cache's
// zero-allocation claim: one binary-protocol hit end to end — digest
// the raw 30238-float objective, look the key up, and write the stored
// frame — with no solve and no allocation. ns/op is the floor a fully
// warm geoalignd adds on top of socket I/O.
func BenchmarkResultCacheHit(b *testing.B) {
	al := benchEngine(b)
	rng := rand.New(rand.NewSource(99))
	obj := make([]float64, al.SourceUnits())
	for j := range obj {
		obj[j] = rng.Float64() * 1e4
	}
	payload := appendFloats(nil, obj)

	c := newResultCache(1<<30, newMetrics())
	key := cacheKeyBytes("us", 1, payload)
	res, err := al.Align(obj)
	if err != nil {
		b.Fatal(err)
	}
	entry := &cacheEntry{
		key:     key,
		bin:     appendBinaryResult(nil, res.Target, res.Weights),
		batched: 1,
	}
	entry.size = entrySize(key, entry.bin, entry.json)
	_, f, leader := c.lookup(key)
	if !leader {
		b.Fatal("prepopulation lookup was not the leader")
	}
	c.complete(key, f, entry)

	// Warm the hit path before the timer starts: a single timed
	// iteration (the CI gate runs -benchtime 1x) would otherwise
	// measure first-touch page faults on the payload instead of the
	// steady-state hit.
	for i := 0; i < 16; i++ {
		k := cacheKeyBytes("us", 1, payload)
		if e, _, _ := c.lookup(k); e == nil {
			b.Fatal("miss on a prepopulated key")
		}
	}

	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := cacheKeyBytes("us", 1, payload)
		e, _, _ := c.lookup(k)
		if e == nil {
			b.Fatal("miss on a prepopulated key")
		}
		if _, err := io.Discard.Write(e.bin); err != nil {
			b.Fatal(err)
		}
	}
}
