package serve

import (
	"expvar"
	"sync/atomic"
	"time"

	"geoalign/internal/catalog"
)

// stageLatency accumulates the latency of one request stage (parse,
// queue wait, solve, encode) as a running count/sum/max in nanoseconds.
type stageLatency struct {
	count atomic.Int64
	sumNs atomic.Int64
	maxNs atomic.Int64
}

func (s *stageLatency) observe(d time.Duration) {
	ns := d.Nanoseconds()
	s.count.Add(1)
	s.sumNs.Add(ns)
	for {
		old := s.maxNs.Load()
		if ns <= old || s.maxNs.CompareAndSwap(old, ns) {
			return
		}
	}
}

func (s *stageLatency) snapshot() map[string]any {
	n := s.count.Load()
	sum := s.sumNs.Load()
	out := map[string]any{
		"count":    n,
		"total_ms": float64(sum) / 1e6,
		"max_ms":   float64(s.maxNs.Load()) / 1e6,
	}
	if n > 0 {
		out["avg_ms"] = float64(sum) / float64(n) / 1e6
	}
	return out
}

// Metrics is the server's expvar-backed observability block. All
// fields are safe for concurrent update; Snapshot renders the whole
// block as one JSON-encodable map (served on GET /metrics and
// exportable through expvar.Publish via Var).
type Metrics struct {
	requests     atomic.Int64 // align requests received (both endpoints)
	ok           atomic.Int64 // 2xx responses
	clientErrors atomic.Int64 // 4xx responses other than shed
	shed         atomic.Int64 // 429 responses from the admission gate
	serverErrors atomic.Int64 // 5xx responses
	cancelled    atomic.Int64 // requests dropped on client cancellation

	calls      atomic.Int64 // engine calls issued (one per solve or client batch)
	objectives atomic.Int64 // objectives those calls carried

	deltas        atomic.Int64 // deltas applied and published
	deltaRejected atomic.Int64 // deltas rejected as malformed
	persists      atomic.Int64 // snapshot re-persists triggered by deltas

	cacheEnabled       bool         // result cache configured (set once at server build)
	cacheHits          atomic.Int64 // align responses served from the result cache
	cacheMisses        atomic.Int64 // lookups that went on to solve (singleflight leaders)
	cacheEvictions     atomic.Int64 // entries evicted by the LRU byte budget
	cachePurged        atomic.Int64 // entries dropped eagerly by a generation swap
	singleflightMerged atomic.Int64 // identical concurrent misses merged into a leader's solve
	cacheBytes         atomic.Int64 // gauge: current budget charge across shards
	cacheEntries       atomic.Int64 // gauge: current entry count

	blobRequests    atomic.Int64 // /v1/blobs/{digest} requests served
	manifestApplies atomic.Int64 // per-engine manifest apply attempts
	manifestSwaps   atomic.Int64 // manifest applies that published a new generation
	manifestErrors  atomic.Int64 // manifest applies that failed

	catalogSearches      atomic.Int64 // /v1/catalog/search requests received
	catalogTables        atomic.Int64 // tables registered over HTTP
	catalogEdges         atomic.Int64 // engine edges (re-)indexed into the catalog
	catalogPersists      atomic.Int64 // sidecar writes completed
	catalogPersistErrors atomic.Int64 // sidecar writes failed

	parse  stageLatency
	queue  stageLatency
	solve  stageLatency
	encode stageLatency

	queueDepth   func() int            // set by the server; admission slots in use
	engines      func() SnapshotTotals // set by the server; registry engine gauges
	catalogStats func() catalog.Stats  // set when a catalog is configured
}

// observeSolve records one engine call carrying n objectives: 1 for a
// /v1/align solve, the batch size for a /v1/align/batch call.
func (m *Metrics) observeSolve(n int) {
	m.calls.Add(1)
	m.objectives.Add(int64(n))
}

// Requests reports the number of align requests received.
func (m *Metrics) Requests() int64 { return m.requests.Load() }

// Shed reports the number of 429 responses issued by the admission
// gate.
func (m *Metrics) Shed() int64 { return m.shed.Load() }

// Batches reports the number of engine calls issued: one per
// /v1/align solve and one per /v1/align/batch call.
func (m *Metrics) Batches() int64 { return m.calls.Load() }

// BatchedRequests reports the number of objectives those engine calls
// solved, so BatchedRequests/Batches is the mean objectives per call.
func (m *Metrics) BatchedRequests() int64 { return m.objectives.Load() }

// DeltasApplied reports the number of deltas applied and published as
// new engine generations.
func (m *Metrics) DeltasApplied() int64 { return m.deltas.Load() }

// CacheHits reports the number of align responses served straight from
// the result cache.
func (m *Metrics) CacheHits() int64 { return m.cacheHits.Load() }

// CacheMisses reports the number of cache lookups that went on to
// solve (one per singleflight leader).
func (m *Metrics) CacheMisses() int64 { return m.cacheMisses.Load() }

// CacheEvictions reports the number of entries evicted by the LRU byte
// budget.
func (m *Metrics) CacheEvictions() int64 { return m.cacheEvictions.Load() }

// CachePurged reports the number of entries dropped eagerly when a
// generation swap invalidated them.
func (m *Metrics) CachePurged() int64 { return m.cachePurged.Load() }

// SingleflightMerged reports how many identical concurrent misses were
// merged into another request's in-flight solve.
func (m *Metrics) SingleflightMerged() int64 { return m.singleflightMerged.Load() }

// CacheBytes reports the result cache's current budget charge.
func (m *Metrics) CacheBytes() int64 { return m.cacheBytes.Load() }

// SnapshotPersists reports the number of snapshot re-persists the delta
// handler has triggered.
func (m *Metrics) SnapshotPersists() int64 { return m.persists.Load() }

// BlobRequests reports the number of blob fetches served to peers.
func (m *Metrics) BlobRequests() int64 { return m.blobRequests.Load() }

// ManifestSwaps reports how many manifest applies published a new
// engine generation.
func (m *Metrics) ManifestSwaps() int64 { return m.manifestSwaps.Load() }

// Snapshot renders the metrics block as a JSON-encodable map.
func (m *Metrics) Snapshot() map[string]any {
	out := map[string]any{
		"requests": map[string]any{
			"total":         m.requests.Load(),
			"ok":            m.ok.Load(),
			"client_errors": m.clientErrors.Load(),
			"shed":          m.shed.Load(),
			"server_errors": m.serverErrors.Load(),
			"cancelled":     m.cancelled.Load(),
		},
		"solves": map[string]any{
			"engine_calls": m.calls.Load(),
			"objectives":   m.objectives.Load(),
		},
		"deltas": map[string]any{
			"applied":  m.deltas.Load(),
			"rejected": m.deltaRejected.Load(),
			"persists": m.persists.Load(),
		},
		"result_cache": map[string]any{
			"enabled":             m.cacheEnabled,
			"hits":                m.cacheHits.Load(),
			"misses":              m.cacheMisses.Load(),
			"evictions":           m.cacheEvictions.Load(),
			"purged":              m.cachePurged.Load(),
			"singleflight_merged": m.singleflightMerged.Load(),
			"bytes":               m.cacheBytes.Load(),
			"entries":             m.cacheEntries.Load(),
		},
		"latency": map[string]any{
			"parse":  m.parse.snapshot(),
			"queue":  m.queue.snapshot(),
			"solve":  m.solve.snapshot(),
			"encode": m.encode.snapshot(),
		},
	}
	if m.queueDepth != nil {
		out["queue_depth"] = m.queueDepth()
	}
	if m.blobRequests.Load()+m.manifestApplies.Load() > 0 {
		out["cluster"] = map[string]any{
			"blob_requests":    m.blobRequests.Load(),
			"manifest_applies": m.manifestApplies.Load(),
			"manifest_swaps":   m.manifestSwaps.Load(),
			"manifest_errors":  m.manifestErrors.Load(),
		}
	}
	if m.catalogStats != nil {
		st := m.catalogStats()
		out["catalog"] = map[string]any{
			"tables":            st.Tables,
			"edges":             st.Edges,
			"postings":          st.Postings,
			"searches":          m.catalogSearches.Load(),
			"index_searches":    st.Searches,
			"tables_registered": m.catalogTables.Load(),
			"edges_indexed":     m.catalogEdges.Load(),
			"persists":          m.catalogPersists.Load(),
			"persist_errors":    m.catalogPersistErrors.Load(),
		}
	}
	if m.engines != nil {
		t := m.engines()
		out["engines"] = map[string]any{
			"registered":            t.Engines,
			"snapshot_backed":       t.SnapshotBacked,
			"snapshot_mapped_bytes": t.MappedBytes,
			"precompute_bytes":      t.PrecomputeBytes,
			"snapshot_load_max_ms":  t.MaxLoadMillis,
		}
	}
	return out
}

// Var adapts the metrics block to an expvar.Var, for publication under
// a process-wide name (expvar.Publish panics on duplicates, so the
// server does not publish automatically; the geoalignd binary does).
func (m *Metrics) Var() expvar.Var {
	return expvar.Func(func() any { return m.Snapshot() })
}
