package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Router is the fleet front door: it owns the replica ring, probes
// replica health, and proxies the serving API to shard owners.
//
// The proxy path is deliberately thin. Request bodies are passed
// through as raw bytes — the binary align codec is never decoded, so
// routing a 30k-source objective costs one buffered read and one
// write, not a float parse — and responses stream straight through
// with the replica's status and headers intact. In particular a
// replica's 429 + Retry-After shed response reaches the client
// unchanged: backpressure is end-to-end, the router never absorbs or
// retries it. The only header the router adds is X-Geoalign-Shard,
// naming the replica that served the request, so a misbehaving shard
// is one curl -i away from being identified.
type Router struct {
	cfg    RouterConfig
	ring   *Ring
	client *http.Client
	mux    *http.ServeMux

	mu       sync.Mutex
	replicas map[string]*replicaState

	metrics routerMetrics

	wg     sync.WaitGroup
	cancel context.CancelFunc
}

// RouterConfig tunes a Router. Zero values take the defaults noted.
type RouterConfig struct {
	// Replicas are the geoalignd base URLs the router shards over
	// (e.g. "http://10.0.0.7:8417"). Required, deduplicated.
	Replicas []string
	// VNodes is the virtual-node count per replica; DefaultVNodes when
	// 0.
	VNodes int
	// LoadFactor bounds a replica's in-flight load relative to the
	// fleet average before requests spill to the next ring node;
	// DefaultLoadFactor when 0, <= 1 disables spill.
	LoadFactor float64
	// ProbeInterval is the health-probe cadence; default 2s.
	ProbeInterval time.Duration
	// ProbeTimeout caps one /healthz probe; default 1s.
	ProbeTimeout time.Duration
	// FailAfter ejects a replica from the ring after this many
	// consecutive probe failures; default 2. One successful probe
	// readmits it.
	FailAfter int
	// Transport overrides the pooled keep-alive transport.
	Transport http.RoundTripper
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.VNodes == 0 {
		c.VNodes = DefaultVNodes
	}
	if c.LoadFactor == 0 {
		c.LoadFactor = DefaultLoadFactor
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout == 0 {
		c.ProbeTimeout = time.Second
	}
	if c.FailAfter == 0 {
		c.FailAfter = 2
	}
	if c.Transport == nil {
		c.Transport = newTransport()
	}
	return c
}

// newTransport builds the pooled keep-alive transport the proxy path
// rides: generous per-host idle connections (every request to a shard
// reuses a warm TCP connection instead of paying a handshake) and no
// proxy/compression middlemen on the binary bodies.
func newTransport() *http.Transport {
	return &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     90 * time.Second,
		DisableCompression:  true,
	}
}

// replicaState is the router's health bookkeeping for one replica.
type replicaState struct {
	id string // normalised base URL

	// Guarded by Router.mu; written only by the probe loop and
	// transport-failure reports.
	healthy     bool
	consecFails int
	lastErr     string
	lastProbe   time.Time
	probeMillis float64
	engineCount int64
	proxied     atomic.Int64
	proxyErrors atomic.Int64
}

// routerMetrics counts what the router itself does.
type routerMetrics struct {
	requests    atomic.Int64 // requests received on proxied routes
	proxied     atomic.Int64 // requests forwarded to a replica
	retries     atomic.Int64 // transparent failovers after transport errors
	shed        atomic.Int64 // 429s passed through from replicas
	noReplica   atomic.Int64 // requests failed for want of a healthy replica
	proxyErrors atomic.Int64 // requests failed on transport errors (post-retry)
	probes      atomic.Int64 // health probes issued
	ejections   atomic.Int64 // replicas ejected from the ring
	readmits    atomic.Int64 // replicas readmitted after recovery
}

// NewRouter builds a router over the configured replica fleet. Every
// replica starts healthy (in the ring); the health prober adjusts
// membership from there. Call Start to begin probing and Close to stop.
func NewRouter(cfg RouterConfig) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("cluster: no replicas configured")
	}
	rt := &Router{
		cfg:      cfg,
		ring:     NewRing(cfg.VNodes, cfg.LoadFactor),
		client:   &http.Client{Transport: cfg.Transport},
		mux:      http.NewServeMux(),
		replicas: make(map[string]*replicaState),
	}
	for _, raw := range cfg.Replicas {
		id, err := normalizeReplica(raw)
		if err != nil {
			return nil, err
		}
		if _, dup := rt.replicas[id]; dup {
			continue
		}
		rt.replicas[id] = &replicaState{id: id, healthy: true}
	}
	rt.rebuildRing()

	rt.mux.HandleFunc("POST /v1/align", rt.handleAlign)
	rt.mux.HandleFunc("POST /v1/align/batch", rt.handleAlign)
	rt.mux.HandleFunc("POST /v1/engines/{name}/delta", rt.handleDelta)
	rt.mux.HandleFunc("GET /v1/engines", rt.handleEngines)
	rt.mux.HandleFunc("GET /v1/cluster/manifest", rt.handleManifestGet)
	rt.mux.HandleFunc("POST /v1/cluster/manifest", rt.handleManifestBroadcast)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealth)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	return rt, nil
}

// normalizeReplica validates a replica base URL and strips any
// trailing slash so IDs compare stably.
func normalizeReplica(raw string) (string, error) {
	u, err := url.Parse(raw)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return "", fmt.Errorf("cluster: bad replica URL %q (want e.g. http://host:8417)", raw)
	}
	u.Path = strings.TrimSuffix(u.Path, "/")
	return u.String(), nil
}

// Handler returns the router's HTTP handler tree.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Ring exposes the router's hash ring (read-mostly; used by tests and
// the health endpoint).
func (rt *Router) Ring() *Ring { return rt.ring }

// Start launches the background health prober. Close stops it.
func (rt *Router) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	rt.cancel = cancel
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		t := time.NewTicker(rt.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				rt.ProbeOnce(ctx)
			}
		}
	}()
}

// Close stops the health prober and closes idle upstream connections.
func (rt *Router) Close() {
	if rt.cancel != nil {
		rt.cancel()
		rt.wg.Wait()
	}
	if tr, ok := rt.cfg.Transport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
}

// rebuildRing recomputes ring membership from replica health. Caller
// must not hold rt.mu... (it locks internally).
func (rt *Router) rebuildRing() {
	rt.mu.Lock()
	ids := make([]string, 0, len(rt.replicas))
	for id, st := range rt.replicas {
		if st.healthy {
			ids = append(ids, id)
		}
	}
	rt.mu.Unlock()
	sort.Strings(ids)
	rt.ring.SetNodes(ids)
}

// ProbeOnce probes every replica's /healthz once, synchronously, and
// updates ring membership. The probe loop calls it on a cadence; tests
// call it directly for deterministic rebalance scenarios.
func (rt *Router) ProbeOnce(ctx context.Context) {
	rt.mu.Lock()
	targets := make([]*replicaState, 0, len(rt.replicas))
	for _, st := range rt.replicas {
		targets = append(targets, st)
	}
	rt.mu.Unlock()

	type outcome struct {
		st      *replicaState
		err     error
		took    time.Duration
		engines int64
	}
	results := make([]outcome, len(targets))
	var wg sync.WaitGroup
	for i, st := range targets {
		wg.Add(1)
		go func(i int, st *replicaState) {
			defer wg.Done()
			rt.metrics.probes.Add(1)
			pctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
			defer cancel()
			start := time.Now()
			engines, err := rt.probeHealth(pctx, st.id)
			results[i] = outcome{st: st, err: err, took: time.Since(start), engines: engines}
		}(i, st)
	}
	wg.Wait()

	changed := false
	rt.mu.Lock()
	for _, res := range results {
		st := res.st
		st.lastProbe = time.Now()
		st.probeMillis = float64(res.took) / float64(time.Millisecond)
		if res.err != nil {
			st.consecFails++
			st.lastErr = res.err.Error()
			if st.healthy && st.consecFails >= rt.cfg.FailAfter {
				st.healthy = false
				changed = true
				rt.metrics.ejections.Add(1)
			}
			continue
		}
		st.consecFails = 0
		st.lastErr = ""
		st.engineCount = res.engines
		if !st.healthy {
			st.healthy = true
			changed = true
			rt.metrics.readmits.Add(1)
		}
	}
	rt.mu.Unlock()
	if changed {
		rt.rebuildRing()
	}
}

// probeHealth fetches one replica's /healthz and returns its engine
// count. Any non-200 or malformed body is a failed probe.
func (rt *Router) probeHealth(ctx context.Context, id string) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, id+"/healthz", nil)
	if err != nil {
		return 0, err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
		return 0, fmt.Errorf("healthz %s", resp.Status)
	}
	var body struct {
		Status  string `json:"status"`
		Engines int64  `json:"engines"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&body); err != nil {
		return 0, err
	}
	if body.Status != "ok" {
		return 0, fmt.Errorf("healthz status %q", body.Status)
	}
	return body.Engines, nil
}

// reportTransportFailure counts a proxy-time connection failure as a
// probe failure, so a dead replica is ejected at request speed instead
// of waiting out the probe cadence.
func (rt *Router) reportTransportFailure(id string, err error) {
	changed := false
	rt.mu.Lock()
	if st, ok := rt.replicas[id]; ok {
		st.consecFails++
		st.lastErr = err.Error()
		if st.healthy && st.consecFails >= rt.cfg.FailAfter {
			st.healthy = false
			changed = true
			rt.metrics.ejections.Add(1)
		}
	}
	rt.mu.Unlock()
	if changed {
		rt.rebuildRing()
	}
}

// ShardHeader names the replica that served a proxied request.
const ShardHeader = "X-Geoalign-Shard"

// maxProxyBody caps buffered request bodies, matching the replicas'
// own MaxBytesReader limit.
const maxProxyBody = 1 << 28

// proxyBufPool recycles body and copy buffers on the proxy path.
var proxyBufPool = sync.Pool{New: func() any { b := make([]byte, 64<<10); return &b }}

type errorBody struct {
	Error string `json:"error"`
}

func (rt *Router) writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{Error: msg})
}

// engineOf extracts the routing key from an align request: the
// ?engine= query parameter when present (always, for binary bodies),
// otherwise the "engine" field of the JSON body.
func engineOf(r *http.Request, body []byte) string {
	if name := r.URL.Query().Get("engine"); name != "" {
		return name
	}
	var peek struct {
		Engine string `json:"engine"`
	}
	if err := json.Unmarshal(body, &peek); err != nil {
		return ""
	}
	return peek.Engine
}

// readBody reads a request body into one buffer sized from its
// Content-Length: a binary objective runs to hundreds of kilobytes, and
// io.ReadAll would grow and copy its buffer several times over to
// reach that. A body longer or shorter than its Content-Length is an
// error, not silently truncated; a body of unknown length (chunked)
// falls back to io.ReadAll. The buffer is not pooled:
// http.Transport may still be reading a request body after RoundTrip
// returns, so a recycled buffer could be overwritten while in use.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, maxProxyBody)
	if r.ContentLength < 0 {
		return io.ReadAll(body)
	}
	if r.ContentLength > maxProxyBody {
		return nil, fmt.Errorf("cluster: body of %d bytes exceeds the %d-byte limit", r.ContentLength, maxProxyBody)
	}
	buf := make([]byte, r.ContentLength)
	if _, err := io.ReadFull(body, buf); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
			return nil, errors.New("cluster: body shorter than Content-Length")
		}
		return nil, err
	}
	var extra [1]byte
	if n, err := body.Read(extra[:]); n != 0 {
		return nil, errors.New("cluster: body longer than Content-Length")
	} else if err != nil && err != io.EOF {
		return nil, err
	}
	return buf, nil
}

func (rt *Router) handleAlign(w http.ResponseWriter, r *http.Request) {
	rt.metrics.requests.Add(1)
	body, err := readBody(w, r)
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	engine := engineOf(r, body)
	if engine == "" {
		rt.writeError(w, http.StatusBadRequest, "cluster: missing engine name (?engine= or JSON \"engine\" field)")
		return
	}
	rt.proxy(w, r, engine, body)
}

func (rt *Router) handleDelta(w http.ResponseWriter, r *http.Request) {
	rt.metrics.requests.Add(1)
	body, err := readBody(w, r)
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	// Deltas route like aligns: the engine's shard owner applies the
	// revision. (Fleet-wide rollout of the revised snapshot is the
	// manifest broadcast's job, not the delta path's.)
	rt.proxy(w, r, r.PathValue("name"), body)
}

// proxy forwards the request body to the engine's shard owner,
// failing over to ring successors on transport errors. Replica HTTP
// statuses — including 429 shed responses — pass through verbatim.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, engine string, body []byte) {
	owner, ok := rt.ring.Owner(engine)
	if !ok {
		rt.metrics.noReplica.Add(1)
		rt.writeError(w, http.StatusServiceUnavailable, "cluster: no healthy replicas")
		return
	}
	// Failover order: bounded-load owner first, then ring successors
	// not already tried.
	tried := map[string]bool{owner: true}
	targets := []string{owner}
	for _, s := range rt.ring.OwnerSuccessors(engine, 3) {
		if !tried[s] {
			tried[s] = true
			targets = append(targets, s)
		}
	}

	var lastErr error
	for attempt, id := range targets {
		if attempt > 0 {
			rt.metrics.retries.Add(1)
		}
		release := rt.ring.Acquire(id)
		done, err := rt.forward(w, r, id, engine, body)
		release()
		if err == nil {
			return
		}
		lastErr = err
		if done {
			// Response already partially written; nothing to salvage.
			return
		}
		rt.reportTransportFailure(id, err)
	}
	rt.metrics.proxyErrors.Add(1)
	rt.writeError(w, http.StatusBadGateway, "cluster: all shard candidates failed: "+lastErr.Error())
}

// forward sends one attempt to one replica. done reports whether
// response bytes already reached the client (no failover possible).
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, id, engine string, body []byte) (done bool, err error) {
	st := rt.replicaByID(id)
	u := id + r.URL.Path
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, u, bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	req.ContentLength = int64(len(body))
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		if st != nil {
			st.proxyErrors.Add(1)
		}
		return false, err
	}
	defer resp.Body.Close()

	rt.metrics.proxied.Add(1)
	if st != nil {
		st.proxied.Add(1)
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		rt.metrics.shed.Add(1)
	}
	h := w.Header()
	for k, vs := range resp.Header {
		h[k] = vs
	}
	h.Set(ShardHeader, id)
	w.WriteHeader(resp.StatusCode)
	buf := proxyBufPool.Get().(*[]byte)
	_, copyErr := io.CopyBuffer(w, resp.Body, *buf)
	proxyBufPool.Put(buf)
	if copyErr != nil {
		// Headers and some body are out; the connection is poisoned
		// but failover would duplicate bytes. Report done.
		return true, copyErr
	}
	return true, nil
}

func (rt *Router) replicaByID(id string) *replicaState {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.replicas[id]
}
