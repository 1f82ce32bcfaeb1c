package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeReplica is a scriptable geoalignd stand-in: it serves /healthz
// like the real thing and lets each test inject align behaviour.
type fakeReplica struct {
	ts     *httptest.Server
	aligns atomic.Int64
	handle func(w http.ResponseWriter, r *http.Request)
}

func newFakeReplica(t *testing.T, handle func(w http.ResponseWriter, r *http.Request)) *fakeReplica {
	t.Helper()
	f := &fakeReplica{handle: handle}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"status":"ok","engines":1}`)
	})
	serve := func(w http.ResponseWriter, r *http.Request) {
		f.aligns.Add(1)
		if f.handle != nil {
			f.handle(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"engine":"e","target":[1],"weights":[1]}`)
	}
	mux.HandleFunc("POST /v1/align", serve)
	mux.HandleFunc("POST /v1/align/batch", serve)
	mux.HandleFunc("POST /v1/engines/{name}/delta", serve)
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

func newTestRouter(t *testing.T, cfg RouterConfig, replicas ...*fakeReplica) (*Router, *httptest.Server) {
	t.Helper()
	for _, f := range replicas {
		cfg.Replicas = append(cfg.Replicas, f.ts.URL)
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { ts.Close(); rt.Close() })
	return rt, ts
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestRouterRoutesByEngine(t *testing.T) {
	a := newFakeReplica(t, nil)
	b := newFakeReplica(t, nil)
	rt, ts := newTestRouter(t, RouterConfig{}, a, b)

	// Requests for one engine land on its ring owner, every time,
	// whether the name arrives via query parameter or JSON body.
	owner, ok := rt.Ring().Owner("e1")
	if !ok {
		t.Fatal("no owner")
	}
	for i := 0; i < 8; i++ {
		body := `{"engine":"e1","objective":[1,2]}`
		url := ts.URL + "/v1/align"
		if i%2 == 0 {
			url += "?engine=e1"
			body = `{"objective":[1,2]}`
		}
		resp := postJSON(t, url, body)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("align %d = %d", i, resp.StatusCode)
		}
		if got := resp.Header.Get(ShardHeader); got != owner {
			t.Fatalf("shard header = %q, want owner %q", got, owner)
		}
	}
	total := a.aligns.Load() + b.aligns.Load()
	if total != 8 {
		t.Fatalf("replicas served %d aligns, want 8", total)
	}
	if a.aligns.Load() != 0 && b.aligns.Load() != 0 {
		t.Fatal("one engine's requests split across replicas")
	}

	// Missing engine name is rejected at the router, not proxied.
	resp := postJSON(t, ts.URL+"/v1/align", `{"objective":[1]}`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing engine = %d, want 400", resp.StatusCode)
	}
}

func TestRouterDeltaRoutesByPathName(t *testing.T) {
	var gotPath atomic.Value
	record := func(w http.ResponseWriter, r *http.Request) {
		gotPath.Store(r.URL.Path)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"engine":"e9","generation":2}`)
	}
	a := newFakeReplica(t, record)
	b := newFakeReplica(t, record)
	rt, ts := newTestRouter(t, RouterConfig{}, a, b)

	resp := postJSON(t, ts.URL+"/v1/engines/e9/delta", `{}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta = %d", resp.StatusCode)
	}
	if p := gotPath.Load(); p != "/v1/engines/e9/delta" {
		t.Fatalf("replica saw path %v", p)
	}
	owner, _ := rt.Ring().Owner("e9")
	if got := resp.Header.Get(ShardHeader); got != owner {
		t.Fatalf("delta shard = %q, want %q", got, owner)
	}
}

func TestRouterShedPassthrough(t *testing.T) {
	// A replica under admission pressure sheds with 429 + Retry-After;
	// the router must relay both unchanged (end-to-end backpressure)
	// and still name the shard.
	shedding := newFakeReplica(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":"overloaded: queue full"}`)
	})
	rt, ts := newTestRouter(t, RouterConfig{}, shedding)

	resp := postJSON(t, ts.URL+"/v1/align?engine=e1", `{"objective":[1]}`)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want 1 (must pass through)", ra)
	}
	if !strings.Contains(string(body), "overloaded") {
		t.Fatalf("shed body not passed through: %s", body)
	}
	if resp.Header.Get(ShardHeader) == "" {
		t.Fatal("shard header missing on shed response")
	}
	if rt.metrics.shed.Load() != 1 {
		t.Fatalf("router shed metric = %d", rt.metrics.shed.Load())
	}
}

func TestRouterFailoverOnDeadReplica(t *testing.T) {
	a := newFakeReplica(t, nil)
	b := newFakeReplica(t, nil)
	rt, ts := newTestRouter(t, RouterConfig{FailAfter: 1}, a, b)

	// Find an engine owned by replica a, then kill a. The first
	// request must transparently fail over to b — and the transport
	// error doubles as a probe failure, ejecting a immediately.
	engine := ""
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("eng-%d", i)
		if owner, _ := rt.Ring().Owner(name); owner == a.ts.URL {
			engine = name
			break
		}
	}
	if engine == "" {
		t.Fatal("no engine hashed to replica a")
	}
	a.ts.Close()

	resp := postJSON(t, ts.URL+"/v1/align?engine="+engine, `{"objective":[1]}`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover align = %d", resp.StatusCode)
	}
	if got := resp.Header.Get(ShardHeader); got != b.ts.URL {
		t.Fatalf("served by %q, want survivor %q", got, b.ts.URL)
	}
	if rt.metrics.retries.Load() == 0 {
		t.Fatal("no retry recorded")
	}

	// The dead replica is already out of the ring: the survivor now
	// owns the engine directly and no further retries are paid.
	if owner, _ := rt.Ring().Owner(engine); owner != b.ts.URL {
		t.Fatalf("post-ejection owner = %q", owner)
	}
	before := rt.metrics.retries.Load()
	resp = postJSON(t, ts.URL+"/v1/align?engine="+engine, `{"objective":[1]}`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rt.metrics.retries.Load() != before {
		t.Fatalf("second request: status %d, retries %d -> %d", resp.StatusCode, before, rt.metrics.retries.Load())
	}
	if rt.metrics.ejections.Load() != 1 {
		t.Fatalf("ejections = %d, want 1", rt.metrics.ejections.Load())
	}
}

func TestRouterProbeEjectAndReadmit(t *testing.T) {
	a := newFakeReplica(t, nil)
	b := newFakeReplica(t, nil)
	rt, _ := newTestRouter(t, RouterConfig{FailAfter: 2, ProbeTimeout: 200 * time.Millisecond}, a, b)

	if n := len(rt.Ring().Nodes()); n != 2 {
		t.Fatalf("initial ring size = %d", n)
	}

	// Take a down: two failed probe rounds eject it.
	a.ts.Close()
	ctx := context.Background()
	rt.ProbeOnce(ctx)
	if n := len(rt.Ring().Nodes()); n != 2 {
		t.Fatalf("ejected after one probe failure (FailAfter=2), ring size = %d", n)
	}
	rt.ProbeOnce(ctx)
	if nodes := rt.Ring().Nodes(); len(nodes) != 1 || nodes[0] != b.ts.URL {
		t.Fatalf("post-ejection ring = %v", nodes)
	}

	// Every engine now maps to the survivor.
	for i := 0; i < 16; i++ {
		if owner, ok := rt.Ring().Owner(fmt.Sprintf("eng-%d", i)); !ok || owner != b.ts.URL {
			t.Fatalf("engine %d owner = %q after ejection", i, owner)
		}
	}

	// One healthy probe readmits it. (Rebind is not possible on a
	// closed httptest server, so readmission is exercised end-to-end
	// in the e2e test; here we verify the down replica stays out.)
	rt.ProbeOnce(ctx)
	if n := len(rt.Ring().Nodes()); n != 1 {
		t.Fatalf("dead replica readmitted, ring size = %d", n)
	}
	if rt.metrics.ejections.Load() != 1 {
		t.Fatalf("ejections = %d", rt.metrics.ejections.Load())
	}
}

func TestRouterAllReplicasDown(t *testing.T) {
	a := newFakeReplica(t, nil)
	rt, ts := newTestRouter(t, RouterConfig{FailAfter: 1}, a)
	a.ts.Close()
	rt.ProbeOnce(context.Background())

	resp := postJSON(t, ts.URL+"/v1/align?engine=e1", `{"objective":[1]}`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
	}
	json.NewDecoder(hresp.Body).Decode(&health)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable || health.Status != "down" {
		t.Fatalf("healthz = %d %q", hresp.StatusCode, health.Status)
	}
}

func TestRouterEnginesAggregate(t *testing.T) {
	// Replicas report different engine sets; the router merges them
	// into one listing annotated with replica and shard owner.
	build := func(listing string) *httptest.Server {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, `{"status":"ok","engines":1}`)
		})
		mux.HandleFunc("GET /v1/engines", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, listing)
		})
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		return ts
	}
	r1 := build(`{"engines":[{"name":"alpha","generation":3},{"name":"beta","generation":1}]}`)
	r2 := build(`{"engines":[{"name":"alpha","generation":3}]}`)

	rt, err := NewRouter(RouterConfig{Replicas: []string{r1.URL, r2.URL}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { ts.Close(); rt.Close() })

	resp, err := http.Get(ts.URL + "/v1/engines")
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Engines []map[string]any `json:"engines"`
	}
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if len(out.Engines) != 3 {
		t.Fatalf("aggregated %d entries, want 3: %+v", len(out.Engines), out.Engines)
	}
	wantOwner, _ := rt.Ring().Owner("alpha")
	for _, e := range out.Engines {
		if e["replica"] == "" {
			t.Fatalf("entry missing replica: %+v", e)
		}
		if e["name"] == "alpha" && e["shard_owner"] != wantOwner {
			t.Fatalf("alpha shard_owner = %v, want %v", e["shard_owner"], wantOwner)
		}
	}
	// Sorted by (name, replica): alpha, alpha, beta.
	if out.Engines[0]["name"] != "alpha" || out.Engines[2]["name"] != "beta" {
		t.Fatalf("aggregate order: %+v", out.Engines)
	}
}

func TestRouterManifestBroadcast(t *testing.T) {
	var got [2]atomic.Int64
	build := func(i int, status int) *httptest.Server {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, `{"status":"ok","engines":0}`)
		})
		mux.HandleFunc("POST /v1/cluster/manifest", func(w http.ResponseWriter, r *http.Request) {
			body, _ := io.ReadAll(r.Body)
			if !bytes.Contains(body, []byte("sha256:")) {
				t.Errorf("replica %d got body %s", i, body)
			}
			got[i].Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			fmt.Fprint(w, `{"engines":{}}`)
		})
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		return ts
	}
	ok := build(0, http.StatusOK)
	bad := build(1, http.StatusBadGateway)

	rt, err := NewRouter(RouterConfig{Replicas: []string{ok.URL, bad.URL}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { ts.Close(); rt.Close() })

	manifest := `{"engines":{"e1":{"digest":"sha256:` + strings.Repeat("ab", 32) + `"}}}`
	resp := postJSON(t, ts.URL+"/v1/cluster/manifest", manifest)
	var out struct {
		Replicas map[string]struct {
			Error string `json:"error"`
		} `json:"replicas"`
	}
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("broadcast with one failing replica = %d, want 502", resp.StatusCode)
	}
	if got[0].Load() != 1 || got[1].Load() != 1 {
		t.Fatalf("broadcast reached %d/%d replicas", got[0].Load(), got[1].Load())
	}
	if out.Replicas[ok.URL].Error != "" || out.Replicas[bad.URL].Error == "" {
		t.Fatalf("per-replica detail wrong: %+v", out.Replicas)
	}
}

func TestRouterRejectsBadConfig(t *testing.T) {
	if _, err := NewRouter(RouterConfig{}); err == nil {
		t.Fatal("empty replica list accepted")
	}
	if _, err := NewRouter(RouterConfig{Replicas: []string{"not a url"}}); err == nil {
		t.Fatal("bad replica URL accepted")
	}
}

// TestRouterBodyLength: the router reads a body with a declared length
// into one buffer of that size and answers 400, without proxying, when
// the body is longer or shorter than its Content-Length — on the align
// and the delta route alike. A chunked body, with no declared length,
// is still read in full and proxied unchanged.
func TestRouterBodyLength(t *testing.T) {
	echo := func(w http.ResponseWriter, r *http.Request) {
		b, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Write(b)
	}
	a := newFakeReplica(t, echo)
	rt, ts := newTestRouter(t, RouterConfig{}, a)

	payload := bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7, 8}, 1000)
	for _, path := range []string{"/v1/align?engine=e1", "/v1/engines/e1/delta"} {
		for _, tc := range []struct {
			name string
			cl   int64
		}{
			{"longer", int64(len(payload)) - 8},
			{"shorter", int64(len(payload)) + 8},
		} {
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(payload))
			req.Header.Set("Content-Type", "application/octet-stream")
			req.ContentLength = tc.cl
			rec := httptest.NewRecorder()
			rt.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusBadRequest {
				t.Errorf("%s: body %s than Content-Length = %d, want 400", path, tc.name, rec.Code)
			}
		}
	}
	if n := a.aligns.Load(); n != 0 {
		t.Fatalf("replica received %d requests with mismatched bodies", n)
	}

	for _, path := range []string{"/v1/align?engine=e1", "/v1/engines/e1/delta"} {
		// io.MultiReader hides the length, so the client sends the body
		// chunked.
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, io.MultiReader(bytes.NewReader(payload)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || !bytes.Equal(got, payload) {
			t.Fatalf("%s: chunked body proxied as status %d with %d of %d bytes", path, resp.StatusCode, len(got), len(payload))
		}
	}
}
