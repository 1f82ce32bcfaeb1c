// Package serve is the geoalignd serving layer: an HTTP JSON/binary API
// over a registry of named Aligner engines, with request coalescing and
// bounded-concurrency load shedding.
//
// The interesting piece is the coalescer. The paper's repeated-query
// workload (many attributes crossing the same pair of unit systems)
// arrives at a server as concurrent single-attribute requests; solving
// them one by one under load forfeits the batching wins the engine was
// built for (the shared AᵀB preparation, warm-started solvers and the
// fused chunk redistribution). The coalescer batches while busy: a
// request that finds one of its engine instance's GOMAXPROCS solve
// slots free solves at once, alone, and requests that arrive while
// every slot is busy are merged into one AlignAllContext call that
// runs as soon as a slot frees. No timer is involved, so an idle server
// adds no wait, and batches grow only when arrivals outpace solves: on
// the repository benchmark's serve-miss load the light-phase median
// latency fell from 6.7ms under the former fixed 2ms batching window
// to 3.5ms (2-vCPU host).
// AlignAll is bit-identical to per-request Align, so coalescing is
// invisible in the response bytes, visible only in latency and
// throughput.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"geoalign"
	"geoalign/internal/catalog"
	"geoalign/internal/cluster/blobstore"
)

// Config tunes a Server. The zero value gives the defaults noted on
// each field.
type Config struct {
	// MaxBatch caps how many requests one coalesced engine call may
	// carry; a batch that fills runs at once. Values <= 1 disable
	// coalescing: each request solves alone under its own context.
	// Default 32.
	MaxBatch int
	// MaxInFlight bounds admitted requests; arrivals beyond it wait up
	// to QueueWait and are then shed with 429. Default 256.
	MaxInFlight int
	// QueueWait is how long an arrival may wait for an admission slot
	// before shedding. Default 100ms.
	QueueWait time.Duration
	// RequestTimeout, if positive, caps each request's total time via a
	// context deadline plumbed into the engine.
	RequestTimeout time.Duration
	// ResultCacheBytes budgets the generation-keyed align result cache:
	// repeated (engine generation, objective) pairs are answered from
	// stored response bytes without solving, and identical concurrent
	// misses collapse into one solve. Binary never encodes JSON; JSON is
	// encoded once per entry. 0 (the default) disables the cache. Hits
	// bypass the admission gate — they cost a shard lookup and one
	// Write, not a solve slot.
	ResultCacheBytes int64
	// SnapshotEvery, if positive, invokes SnapshotPersist after every
	// SnapshotEvery deltas applied to an engine name, so a long-lived
	// server's on-disk snapshot tracks its live state. 0 disables
	// re-persistence.
	SnapshotEvery int
	// SnapshotPersist re-persists one engine, called synchronously from
	// the delta handler per SnapshotEvery (the response's "persisted"
	// field reports the outcome). The geoalignd binary wires this to
	// Aligner.WriteSnapshot with the engine's boot-time metadata; nil
	// disables re-persistence regardless of SnapshotEvery.
	SnapshotPersist func(name string, al *geoalign.Aligner) error
	// Catalog, if set, mounts the alignment-catalog routes
	// (/v1/catalog/search, /v1/catalog/tables) over this index and
	// keeps it synchronised with the engine registry: engines whose
	// registration metadata carries unit keys are indexed as crosswalk
	// edges, hot swaps update their generation, removals drop them.
	Catalog *catalog.Catalog
	// CatalogPersist writes the catalog's on-disk sidecar after each
	// mutation (table registration, engine swap). The geoalignd binary
	// wires this to Catalog.Save next to -snapshot-dir; nil disables
	// persistence.
	CatalogPersist func(*catalog.Catalog) error
	// Blobs, if set, makes the server a fleet citizen: it serves its
	// content-addressed snapshot blobs on GET /v1/blobs/{digest} and
	// accepts manifest applies that pull blobs, mmap them, and hot-swap
	// engines. See cluster.go.
	Blobs *blobstore.Store
	// BlobOrigins are peer base URLs manifest applies fall back to when
	// the request body names no fetch_from peers.
	BlobOrigins []string
	// BlobClient issues blob fetches during manifest applies;
	// http.DefaultClient when nil.
	BlobClient *http.Client
	// OpenSnapshot maps a snapshot file into a serving engine during a
	// manifest apply. The geoalignd binary wires worker options in; nil
	// uses serving defaults (NumCPU workers).
	OpenSnapshot func(path string) (*geoalign.Aligner, *geoalign.SnapshotMeta, error)
}

func (c Config) withDefaults() Config {
	if c.MaxBatch == 0 {
		c.MaxBatch = 32
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 256
	}
	if c.QueueWait == 0 {
		c.QueueWait = 100 * time.Millisecond
	}
	return c
}

// Server routes alignment requests to registered engines. Create with
// NewServer, mount Handler on an http.Server, and call Shutdown after
// the http.Server has stopped accepting requests.
type Server struct {
	cfg      Config
	registry *Registry
	metrics  *Metrics
	coal     *Coalescer
	gate     *gate
	cache    *ResultCache // nil when ResultCacheBytes == 0
	mux      *http.ServeMux
	baseCtx  context.Context
	cancel   context.CancelFunc

	// blobClient issues peer blob fetches during manifest applies.
	blobClient *http.Client

	// deltaMu guards deltas; each engine name gets one deltaState whose
	// own mutex serialises delta application for that name (concurrent
	// deltas to different engines proceed in parallel).
	deltaMu sync.Mutex
	deltas  map[string]*deltaState
}

// NewServer builds a server over the given registry. cfg zero values
// take defaults; see Config.
func NewServer(reg *Registry, cfg Config) *Server {
	cfg = cfg.withDefaults()
	m := newMetrics()
	baseCtx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		registry: reg,
		metrics:  m,
		coal:     newCoalescer(cfg.MaxBatch, baseCtx, m),
		gate:     newGate(cfg.MaxInFlight, cfg.QueueWait),
		mux:      http.NewServeMux(),
		baseCtx:  baseCtx,
		cancel:   cancel,
		deltas:   make(map[string]*deltaState),
	}
	m.queueDepth = s.gate.depth
	m.engines = reg.Totals
	if cfg.ResultCacheBytes > 0 {
		s.cache = newResultCache(cfg.ResultCacheBytes, m)
		m.cacheEnabled = true
		// Eager invalidation: a hot swap purges every entry cached
		// against the displaced generations so memory accounting stays
		// honest between swaps. (Correctness never depends on this —
		// stale keys can't be looked up again — it only bounds waste.)
		reg.OnSwap(func(name string, newGen int) { s.cache.purge(name, newGen) })
	}
	s.mux.HandleFunc("POST /v1/align", s.handleAlign)
	s.mux.HandleFunc("POST /v1/align/batch", s.handleAlignBatch)
	s.mux.HandleFunc("GET /v1/engines", s.handleEngines)
	s.mux.HandleFunc("POST /v1/engines/{name}/delta", s.handleDelta)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.Blobs != nil {
		s.blobClient = cfg.BlobClient
		s.mountCluster()
	}
	if cfg.Catalog != nil {
		m.catalogStats = cfg.Catalog.Stats
		s.mux.HandleFunc("GET /v1/catalog/search", s.handleCatalogSearch)
		s.mux.HandleFunc("POST /v1/catalog/search", s.handleCatalogSearch)
		s.mux.HandleFunc("GET /v1/catalog/tables", s.handleCatalogTables)
		s.mux.HandleFunc("POST /v1/catalog/tables", s.handleCatalogRegister)
		s.syncCatalog()
	}
	return s
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the server's metrics block.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Registry returns the engine registry the server routes over.
func (s *Server) Registry() *Registry { return s.registry }

// ResultCache returns the server's result cache, nil when disabled.
func (s *Server) ResultCache() *ResultCache { return s.cache }

// Shutdown drains the serving layer. Call it after http.Server.Shutdown
// has returned (so no new requests are arriving): it runs every batch
// still waiting for a solve slot so current waiters get answers, then
// cancels the base context that in-flight solves run under.
func (s *Server) Shutdown() {
	s.coal.Shutdown()
	s.cancel()
}

// requestCtx applies the configured per-request deadline.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout > 0 {
		return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	}
	return r.Context(), func() {}
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", contentTypeJSON)
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

func (s *Server) writeError(w http.ResponseWriter, status int, msg string) {
	switch {
	case status == http.StatusTooManyRequests:
		s.metrics.shed.Add(1)
		w.Header().Set("Retry-After", "1")
	case status >= 500:
		s.metrics.serverErrors.Add(1)
	case status >= 400:
		s.metrics.clientErrors.Add(1)
	}
	writeJSON(w, status, errorResponse{Error: msg})
}

// solveError maps an engine/coalescer error to an HTTP status.
func solveError(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// Client went away; the status is never seen but keeps logs
		// honest.
		return http.StatusRequestTimeout
	case errors.Is(err, ErrShuttingDown):
		return http.StatusServiceUnavailable
	case errors.Is(err, geoalign.ErrNoSourceUnits), errors.Is(err, geoalign.ErrNonFiniteObjective):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// readBody drains a request body, sizing the buffer up front when the
// Content-Length is known — binary objectives run to hundreds of
// kilobytes, and io.ReadAll's incremental growth would copy them
// several times over.
func readBody(r io.Reader, contentLength int64) ([]byte, error) {
	if contentLength <= 0 || contentLength > 1<<28 {
		return io.ReadAll(r)
	}
	buf := getBuf(int(contentLength))
	if _, err := io.ReadFull(r, buf); err != nil {
		putBuf(buf)
		return nil, err
	}
	// Confirm EOF so a lying Content-Length is an error, not silent
	// truncation.
	if n, err := r.Read(make([]byte, 1)); n != 0 || (err != nil && err != io.EOF) {
		if n != 0 {
			return nil, errors.New("serve: body longer than Content-Length")
		}
		return nil, err
	}
	return buf, nil
}

// isCtxErr reports whether err is a context cancellation or deadline —
// an error private to one request rather than a property of the solve.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// handleAlign is the single-attribute serving path, restructured around
// "encode once, serve many": parse and validate, key the result cache
// by (engine name, generation, objective digest), and only on a cache
// miss admit through the gate and solve. A binary-protocol hit never
// even decodes the objective — the digest is computed straight over the
// raw little-endian body, and the response is one Write of stored
// bytes.
func (s *Server) handleAlign(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests.Add(1)
	t0 := time.Now()
	ctx, cancel := s.requestCtx(r)
	defer cancel()

	name := r.URL.Query().Get("engine")
	binary := r.Header.Get("Content-Type") == contentTypeBinary
	body := http.MaxBytesReader(w, r.Body, 1<<28)

	// Parse: binary bodies stay raw bytes until a solve is actually
	// needed; JSON decodes to floats (digesting either form produces the
	// same key — see digestFloats).
	var raw []byte // pooled; every return path below must putBuf it
	var objective []float64
	if binary {
		var err error
		raw, err = readBody(body, r.ContentLength)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
			return
		}
		if len(raw)%8 != 0 {
			s.writeError(w, http.StatusBadRequest,
				fmt.Sprintf("serve: binary payload of %d bytes is not a whole number of float64s", len(raw)))
			putBuf(raw)
			return
		}
		if name == "" {
			s.writeError(w, http.StatusBadRequest, "binary requests name the engine via ?engine=")
			putBuf(raw)
			return
		}
	} else {
		var req alignRequest
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			s.writeError(w, http.StatusBadRequest, "decoding request: "+err.Error())
			return
		}
		if req.Engine != "" {
			name = req.Engine
		}
		if name == "" {
			s.writeError(w, http.StatusBadRequest, "missing engine name")
			return
		}
		objective = req.Objective
	}

	in, err := s.registry.AcquireInstance(name)
	if err != nil {
		if binary {
			putBuf(raw)
		}
		s.writeError(w, http.StatusNotFound, err.Error())
		return
	}
	defer in.release()
	al := in.Aligner()
	nObj := len(objective)
	if binary {
		nObj = len(raw) / 8
	}
	if nObj != al.SourceUnits() {
		// Validating here keeps malformed requests out of shared
		// batches: co-batched requests never fail on a stranger's input.
		if binary {
			putBuf(raw)
		}
		s.writeError(w, http.StatusBadRequest,
			"objective has "+strconv.Itoa(nObj)+" values, engine expects "+strconv.Itoa(al.SourceUnits()))
		return
	}
	tParsed := time.Now()
	s.metrics.parse.observe(tParsed.Sub(t0))

	// Fast path: the generation-keyed result cache. A hit (or a merge
	// into an identical in-flight solve) is resolved here; only a
	// singleflight leader falls through to the solve below.
	var key resultKey
	var flight *cacheFlight
	if s.cache != nil {
		if binary {
			key = cacheKeyBytes(name, in.Generation(), raw)
		} else {
			key = cacheKeyFloats(name, in.Generation(), objective)
		}
		for flight == nil {
			e, f, leader := s.cache.lookup(key)
			if e != nil {
				if binary {
					putBuf(raw)
				}
				s.writeCached(w, e, binary, "hit")
				s.metrics.encode.observe(time.Since(tParsed))
				return
			}
			if leader {
				flight = f
				break
			}
			// Follower: wait for the leader's answer without taking an
			// admission slot — N identical misses cost one solve.
			select {
			case <-f.done:
			case <-ctx.Done():
				if binary {
					putBuf(raw)
				}
				s.metrics.cancelled.Add(1)
				s.writeError(w, solveError(ctx.Err()), ctx.Err().Error())
				return
			}
			if f.err == nil {
				if binary {
					putBuf(raw)
				}
				s.writeCached(w, f.entry, binary, "merged")
				s.metrics.encode.observe(time.Since(tParsed))
				return
			}
			if isCtxErr(f.err) {
				continue // the leader's client went away, not ours; retry
			}
			if binary {
				putBuf(raw)
			}
			s.writeError(w, solveError(f.err), f.err.Error())
			return
		}
	}

	if binary {
		objective, _ = decodeFloats(raw) // length validated above
		putBuf(raw)
	}

	if err := s.gate.acquire(ctx); err != nil {
		if flight != nil {
			s.cache.abort(key, flight, err)
		}
		if errors.Is(err, ErrShed) {
			s.writeError(w, http.StatusTooManyRequests, "server at capacity")
		} else {
			s.metrics.cancelled.Add(1)
			s.writeError(w, solveError(err), err.Error())
		}
		return
	}
	tAdmitted := time.Now()
	s.metrics.queue.observe(tAdmitted.Sub(tParsed))

	var res *geoalign.Result
	batched := 1
	if s.cfg.MaxBatch > 1 {
		res, batched, err = s.coal.Submit(ctx, in, objective)
	} else {
		res, err = al.AlignContext(ctx, objective)
	}
	s.gate.release()
	s.metrics.solve.observe(time.Since(tAdmitted))
	if err != nil {
		if flight != nil {
			s.cache.abort(key, flight, err)
		}
		if errors.Is(err, context.Canceled) {
			s.metrics.cancelled.Add(1)
		}
		s.writeError(w, solveError(err), err.Error())
		return
	}

	tSolved := time.Now()
	if flight != nil {
		// Encode the binary framing once, publish it to followers and the
		// cache, and answer from the entry every later hit reuses; a JSON
		// answer encodes the entry's JSON body here, once.
		entry := newCacheEntry(key, res, batched)
		s.cache.complete(key, flight, entry)
		s.writeCached(w, entry, binary, "")
		s.metrics.encode.observe(time.Since(tSolved))
		return
	}

	w.Header().Set("X-Geoalign-Batch", strconv.Itoa(batched))
	if binary {
		w.Header().Set("Content-Type", contentTypeBinary)
		if err := encodeBinaryResult(w, res.Target, res.Weights); err != nil {
			return // client gone mid-write; nothing to salvage
		}
	} else {
		writeJSON(w, http.StatusOK, alignResponse{
			Engine:  name,
			Target:  res.Target,
			Weights: res.Weights,
			Batched: batched,
		})
	}
	s.metrics.encode.observe(time.Since(tSolved))
	s.metrics.ok.Add(1)
}

// newCacheEntry encodes a solved result into the binary framing the
// cache stores; a JSON body is rendered from it only when a JSON
// response needs one (see ResultCache.jsonBody).
func newCacheEntry(key resultKey, res *geoalign.Result, batched int) *cacheEntry {
	e := &cacheEntry{
		key:     key,
		bin:     appendBinaryResult(make([]byte, 0, 8+8*(len(res.Target)+len(res.Weights))), res.Target, res.Weights),
		batched: batched,
	}
	e.size = entrySize(key, e.bin, nil)
	return e
}

// renderJSON renders the entry's JSON response body from its binary
// framing, byte-identical to what writeJSON puts on the wire for the
// same result: the floats round-trip the framing bit for bit.
func (e *cacheEntry) renderJSON() ([]byte, error) {
	target, weights, err := decodeBinaryResult(e.bin)
	if err != nil {
		return nil, err
	}
	return marshalJSONBody(alignResponse{
		Engine:  e.key.name,
		Target:  target,
		Weights: weights,
		Batched: e.batched,
	})
}

// writeCached answers a request from an entry's stored bytes. how tags
// the X-Geoalign-Cache header ("hit", "merged", or "" for the leader's
// own freshly solved response). The body bytes are identical to what
// the uncached encode path would produce.
func (s *Server) writeCached(w http.ResponseWriter, e *cacheEntry, binary bool, how string) {
	body := e.bin
	ct := contentTypeBinary
	if !binary {
		var err error
		if body, err = s.cache.jsonBody(e); err != nil {
			s.writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		ct = contentTypeJSON
	}
	if how != "" {
		w.Header().Set("X-Geoalign-Cache", how)
	}
	w.Header().Set("X-Geoalign-Batch", strconv.Itoa(e.batched))
	w.Header().Set("Content-Type", ct)
	w.Write(body)
	s.metrics.ok.Add(1)
}

func (s *Server) handleAlignBatch(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests.Add(1)
	t0 := time.Now()
	ctx, cancel := s.requestCtx(r)
	defer cancel()

	var req batchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<28)).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return
	}
	if req.Engine == "" {
		req.Engine = r.URL.Query().Get("engine")
	}
	if req.Engine == "" {
		s.writeError(w, http.StatusBadRequest, "missing engine name")
		return
	}
	lease, err := s.registry.Acquire(req.Engine)
	if err != nil {
		s.writeError(w, http.StatusNotFound, err.Error())
		return
	}
	defer lease.Release()
	al := lease.Aligner()
	for i, obj := range req.Objectives {
		if len(obj) != al.SourceUnits() {
			s.writeError(w, http.StatusBadRequest,
				"objective "+strconv.Itoa(i)+" has "+strconv.Itoa(len(obj))+" values, engine expects "+strconv.Itoa(al.SourceUnits()))
			return
		}
	}
	tParsed := time.Now()
	s.metrics.parse.observe(tParsed.Sub(t0))

	// A client-assembled batch is already the engine's natural shape; it
	// takes one admission slot and skips the coalescer.
	if err := s.gate.acquire(ctx); err != nil {
		if errors.Is(err, ErrShed) {
			s.writeError(w, http.StatusTooManyRequests, "server at capacity")
		} else {
			s.metrics.cancelled.Add(1)
			s.writeError(w, solveError(err), err.Error())
		}
		return
	}
	tAdmitted := time.Now()
	s.metrics.queue.observe(tAdmitted.Sub(tParsed))

	results, err := al.AlignAllContext(ctx, req.Objectives)
	s.gate.release()
	s.metrics.solve.observe(time.Since(tAdmitted))
	if err != nil {
		if errors.Is(err, context.Canceled) {
			s.metrics.cancelled.Add(1)
		}
		s.writeError(w, solveError(err), err.Error())
		return
	}

	tSolved := time.Now()
	resp := batchResponse{
		Engine:  req.Engine,
		Targets: make([][]float64, len(results)),
		Weights: make([][]float64, len(results)),
	}
	for i, res := range results {
		resp.Targets[i] = res.Target
		resp.Weights[i] = res.Weights
	}
	writeJSON(w, http.StatusOK, resp)
	s.metrics.encode.observe(time.Since(tSolved))
	s.metrics.ok.Add(1)
}

func (s *Server) handleEngines(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"engines": s.registry.List()})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "engines": s.registry.Len()})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metrics.Snapshot())
}
