package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"geoalign"
	"geoalign/internal/synth"
)

// testAligner builds a serving-configuration engine (no retained
// crosswalks — the fused batch path whose bit-identity with Align is
// pinned in internal/core) over a synthetic scaling problem.
func testAligner(tb testing.TB, seed int64, ns, nt, k int) *geoalign.Aligner {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	p := synth.ScalingProblem(rng, ns, nt, k)
	refs := make([]geoalign.Reference, len(p.References))
	for kk, r := range p.References {
		xw := geoalign.NewCrosswalk(r.DM.Rows, r.DM.Cols)
		for i := 0; i < r.DM.Rows; i++ {
			cols, vals := r.DM.Row(i)
			for t, j := range cols {
				if err := xw.Add(i, j, vals[t]); err != nil {
					tb.Fatal(err)
				}
			}
		}
		refs[kk] = geoalign.Reference{Name: r.Name, Crosswalk: xw}
	}
	al, err := geoalign.NewAligner(refs, &geoalign.AlignerOptions{Workers: 2})
	if err != nil {
		tb.Fatal(err)
	}
	return al
}

func randObjective(rng *rand.Rand, ns int) []float64 {
	obj := make([]float64, ns)
	for i := range obj {
		obj[i] = rng.Float64() * 100
	}
	return obj
}

func newTestServer(tb testing.TB, al *geoalign.Aligner, cfg Config) (*Server, *httptest.Server) {
	tb.Helper()
	reg := NewRegistry()
	if err := reg.Register("test", al); err != nil {
		tb.Fatal(err)
	}
	s := NewServer(reg, cfg)
	hts := httptest.NewServer(s.Handler())
	tb.Cleanup(func() {
		hts.Close()
		s.Shutdown()
	})
	return s, hts
}

func postAlign(tb testing.TB, client *http.Client, url string, req alignRequest) (alignResponse, *http.Response) {
	tb.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	resp, err := client.Post(url+"/v1/align", contentTypeJSON, bytes.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	var out alignResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			tb.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return out, resp
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRegistryLifecycle(t *testing.T) {
	al := testAligner(t, 3, 40, 8, 3)
	al2 := testAligner(t, 4, 40, 8, 3)
	reg := NewRegistry()
	if err := reg.Register("a", al); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("a", al2); err == nil {
		t.Fatal("duplicate Register accepted")
	}
	if _, err := reg.Acquire("nope"); err == nil {
		t.Fatal("Acquire of unknown engine succeeded")
	}

	lease, err := reg.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	old := reg.Swap("a", al2)
	if old == nil || old.Aligner() != al {
		t.Fatal("Swap did not return the displaced instance")
	}
	select {
	case <-old.Drained():
		t.Fatal("instance drained while a lease was outstanding")
	default:
	}
	lease.Release()
	lease.Release() // double release must be harmless
	select {
	case <-old.Drained():
	case <-time.After(time.Second):
		t.Fatal("instance did not drain after last release")
	}

	infos := reg.List()
	if len(infos) != 1 || infos[0].Generation != 2 || infos[0].Name != "a" {
		t.Fatalf("List() = %+v, want one engine at generation 2", infos)
	}
	if reg.Remove("a") == nil {
		t.Fatal("Remove of live engine returned nil")
	}
	if reg.Len() != 0 {
		t.Fatal("engine still registered after Remove")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	vals := []float64{0, 1.5, -2.25, 1e-300, 3.141592653589793}
	raw := appendFloats(nil, vals)
	back, err := decodeFloats(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !floatsEqual(vals, back) {
		t.Fatalf("decodeFloats(appendFloats(v)) = %v, want %v", back, vals)
	}
	if _, err := decodeFloats(raw[:len(raw)-3]); err == nil {
		t.Fatal("truncated payload accepted")
	}

	var buf bytes.Buffer
	target := []float64{1, 2, 3}
	weights := []float64{0.25, 0.75}
	if err := encodeBinaryResult(&buf, target, weights); err != nil {
		t.Fatal(err)
	}
	gotT, gotW, err := decodeBinaryResult(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !floatsEqual(gotT, target) || !floatsEqual(gotW, weights) {
		t.Fatalf("binary round trip = %v %v, want %v %v", gotT, gotW, target, weights)
	}
	if _, _, err := decodeBinaryResult(buf.Bytes()[:11]); err == nil {
		t.Fatal("truncated binary response accepted")
	}
}

func TestGate(t *testing.T) {
	g := newGate(1, 20*time.Millisecond)
	if err := g.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if g.depth() != 1 {
		t.Fatalf("depth = %d, want 1", g.depth())
	}
	start := time.Now()
	if err := g.acquire(context.Background()); err != ErrShed {
		t.Fatalf("acquire on full gate = %v, want ErrShed", err)
	}
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Fatalf("shed took %v, want about the 20ms queue wait", el)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := g.acquire(ctx); err != context.Canceled {
		t.Fatalf("acquire with cancelled ctx = %v, want context.Canceled", err)
	}
	g.release()
	if err := g.acquire(context.Background()); err != nil {
		t.Fatalf("acquire after release = %v", err)
	}
}

// TestServeAlignMatchesSequential is the end-to-end bit-identity check:
// responses served through the coalescer are byte-for-byte the numbers
// sequential Align calls produce, for every one of a burst of
// concurrent clients. Every solve is held at its start until the whole
// burst has arrived, so the burst deterministically runs as lone
// solves on the instance's slots plus shared batches.
func TestServeAlignMatchesSequential(t *testing.T) {
	al := testAligner(t, 11, 120, 15, 4)
	s, hts, g := newHeldServer(t, al, Config{MaxBatch: 8}, func(*Instance, int) bool { return true })

	const clients = 32
	rng := rand.New(rand.NewSource(5))
	objectives := make([][]float64, clients)
	for i := range objectives {
		objectives[i] = randObjective(rng, 120)
	}
	want := make([]*geoalign.Result, clients)
	for i, obj := range objectives {
		res, err := al.Align(obj)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	got := make([]alignResponse, clients)
	batchSizes := make([]int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, httpResp := postAlign(t, hts.Client(), hts.URL, alignRequest{Engine: "test", Objective: objectives[i]})
			if httpResp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d", i, httpResp.StatusCode)
				return
			}
			got[i] = resp
			fmt.Sscan(httpResp.Header.Get("X-Geoalign-Batch"), &batchSizes[i])
		}(i)
	}
	waitFor(t, "every client to reach a solve or a pending batch", func() bool {
		return int(g.started.Load())+pendingObjectives(s.coal) == clients
	})
	g.open()
	wg.Wait()

	for i := range got {
		if !floatsEqual(got[i].Target, want[i].Target) || !floatsEqual(got[i].Weights, want[i].Weights) {
			t.Errorf("client %d: coalesced response differs from sequential Align", i)
		}
		if got[i].Batched != batchSizes[i] || batchSizes[i] < 1 {
			t.Errorf("client %d: batched field %d vs header %d", i, got[i].Batched, batchSizes[i])
		}
	}
	m := s.Metrics()
	if m.BatchedRequests() != clients {
		t.Errorf("BatchedRequests = %d, want %d", m.BatchedRequests(), clients)
	}
	if m.Batches() >= clients {
		t.Errorf("Batches = %d: no coalescing happened across %d concurrent clients", m.Batches(), clients)
	}
}

// TestServeBinary checks the octet-stream request/response path carries
// the same bits as Align.
func TestServeBinary(t *testing.T) {
	al := testAligner(t, 21, 60, 9, 3)
	_, hts := newTestServer(t, al, Config{MaxBatch: 4})

	rng := rand.New(rand.NewSource(1))
	obj := randObjective(rng, 60)
	want, err := al.Align(obj)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := hts.Client().Post(hts.URL+"/v1/align?engine=test", contentTypeBinary, bytes.NewReader(appendFloats(nil, obj)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != contentTypeBinary {
		t.Fatalf("Content-Type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	target, weights, err := decodeBinaryResult(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !floatsEqual(target, want.Target) || !floatsEqual(weights, want.Weights) {
		t.Fatal("binary response differs from Align")
	}
}

// TestServeFullBatch pins the full-batch path: with every solve slot
// of the instance held busy and MaxBatch=N, the N requests that arrive
// meanwhile run as one batch the moment the Nth arrives, without
// waiting for a slot, and every response reports N.
func TestServeFullBatch(t *testing.T) {
	al := testAligner(t, 31, 80, 10, 3)
	s, hts, g := newHeldServer(t, al, Config{MaxBatch: 4}, func(_ *Instance, n int) bool { return n == 1 })

	post := func(seed int64) (alignResponse, *http.Response) {
		return postAlign(t, hts.Client(), hts.URL, alignRequest{Engine: "test", Objective: randObjective(rand.New(rand.NewSource(seed)), 80)})
	}
	held := g.fillSlots(t, s.coal, func(i int) { post(100 + int64(i)) })

	var wg sync.WaitGroup
	sizes := make([]int, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, httpResp := post(int64(i))
			if httpResp.StatusCode != http.StatusOK {
				t.Errorf("status %d", httpResp.StatusCode)
				return
			}
			sizes[i] = resp.Batched
		}(i)
	}
	wg.Wait() // returns while every slot is still held
	for i, sz := range sizes {
		if sz != 4 {
			t.Errorf("request %d: batch size %d, want 4", i, sz)
		}
	}
	g.open()
	held.Wait()
}

// TestServeShed pins the load-shedding contract: with every admission
// slot held by a request whose solve is blocked, a new request is
// refused with 429 and Retry-After within the configured queue wait.
func TestServeShed(t *testing.T) {
	al := testAligner(t, 41, 80, 10, 3)
	s, hts, g := newHeldServer(t, al, Config{
		MaxBatch:    32,
		MaxInFlight: 1,
		QueueWait:   20 * time.Millisecond,
	}, func(*Instance, int) bool { return true })

	rng := rand.New(rand.NewSource(3))
	obj := randObjective(rng, 80)
	first := make(chan int, 1)
	go func() {
		_, resp := postAlign(t, hts.Client(), hts.URL, alignRequest{Engine: "test", Objective: obj})
		first <- resp.StatusCode
	}()
	// The first request holds the only admission slot while its solve
	// is blocked.
	waitFor(t, "the first request to start solving", func() bool { return g.started.Load() == 1 })

	_, resp := postAlign(t, hts.Client(), hts.URL, alignRequest{Engine: "test", Objective: obj})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	g.open()
	if code := <-first; code != http.StatusOK {
		t.Fatalf("first request status %d", code)
	}
	if s.Metrics().Shed() != 1 {
		t.Errorf("Shed() = %d, want 1", s.Metrics().Shed())
	}
}

func TestServeErrors(t *testing.T) {
	al := testAligner(t, 51, 50, 8, 3)
	_, hts := newTestServer(t, al, Config{MaxBatch: 1})
	client := hts.Client()

	cases := []struct {
		name   string
		status int
		do     func() (*http.Response, error)
	}{
		{"unknown engine", http.StatusNotFound, func() (*http.Response, error) {
			return client.Post(hts.URL+"/v1/align", contentTypeJSON,
				bytes.NewReader([]byte(`{"engine":"nope","objective":[1]}`)))
		}},
		{"wrong objective length", http.StatusBadRequest, func() (*http.Response, error) {
			return client.Post(hts.URL+"/v1/align", contentTypeJSON,
				bytes.NewReader([]byte(`{"engine":"test","objective":[1,2,3]}`)))
		}},
		{"malformed json", http.StatusBadRequest, func() (*http.Response, error) {
			return client.Post(hts.URL+"/v1/align", contentTypeJSON, bytes.NewReader([]byte(`{"eng`)))
		}},
		{"missing engine name", http.StatusBadRequest, func() (*http.Response, error) {
			return client.Post(hts.URL+"/v1/align", contentTypeJSON, bytes.NewReader([]byte(`{"objective":[1]}`)))
		}},
		{"binary without engine param", http.StatusBadRequest, func() (*http.Response, error) {
			return client.Post(hts.URL+"/v1/align", contentTypeBinary, bytes.NewReader(appendFloats(nil, []float64{1, 2})))
		}},
		{"odd binary payload", http.StatusBadRequest, func() (*http.Response, error) {
			return client.Post(hts.URL+"/v1/align?engine=test", contentTypeBinary, bytes.NewReader([]byte{1, 2, 3}))
		}},
		{"get on align", http.StatusMethodNotAllowed, func() (*http.Response, error) {
			return client.Get(hts.URL + "/v1/align")
		}},
		{"batch length mismatch", http.StatusBadRequest, func() (*http.Response, error) {
			return client.Post(hts.URL+"/v1/align/batch", contentTypeJSON,
				bytes.NewReader([]byte(`{"engine":"test","objectives":[[1,2]]}`)))
		}},
	}
	for _, tc := range cases {
		resp, err := tc.do()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}
}

// TestServeBatchEndpoint checks the client-assembled batch route and
// the introspection endpoints.
func TestServeBatchEndpoint(t *testing.T) {
	al := testAligner(t, 61, 70, 9, 3)
	_, hts := newTestServer(t, al, Config{})
	client := hts.Client()

	rng := rand.New(rand.NewSource(6))
	objectives := make([][]float64, 5)
	for i := range objectives {
		objectives[i] = randObjective(rng, 70)
	}
	body, _ := json.Marshal(batchRequest{Engine: "test", Objectives: objectives})
	resp, err := client.Post(hts.URL+"/v1/align/batch", contentTypeJSON, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Targets) != 5 {
		t.Fatalf("got %d targets", len(out.Targets))
	}
	for i, obj := range objectives {
		want, err := al.Align(obj)
		if err != nil {
			t.Fatal(err)
		}
		if !floatsEqual(out.Targets[i], want.Target) || !floatsEqual(out.Weights[i], want.Weights) {
			t.Errorf("objective %d: batch endpoint differs from Align", i)
		}
	}

	engResp, err := client.Get(hts.URL + "/v1/engines")
	if err != nil {
		t.Fatal(err)
	}
	defer engResp.Body.Close()
	var engines struct {
		Engines []EngineInfo `json:"engines"`
	}
	if err := json.NewDecoder(engResp.Body).Decode(&engines); err != nil {
		t.Fatal(err)
	}
	if len(engines.Engines) != 1 || engines.Engines[0].SourceUnits != 70 || engines.Engines[0].References != 3 {
		t.Fatalf("engines = %+v", engines.Engines)
	}

	for _, path := range []string{"/healthz", "/metrics"} {
		r, err := client.Get(hts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", path, r.StatusCode)
		}
	}
}

// TestServeStress exercises the full stack under -race: concurrent
// clients, a hot-swapping registry, and a mid-flight graceful shutdown.
func TestServeStress(t *testing.T) {
	al1 := testAligner(t, 71, 80, 12, 3)
	al2 := testAligner(t, 72, 80, 12, 3)
	reg := NewRegistry()
	if err := reg.Register("e", al1); err != nil {
		t.Fatal(err)
	}
	s := NewServer(reg, Config{MaxBatch: 8, MaxInFlight: 16, QueueWait: 100 * time.Millisecond})
	hts := httptest.NewServer(s.Handler())
	defer hts.Close()

	// Hot-swapper: replace the engine generation while clients hammer
	// it, and verify every displaced generation fully drains.
	stopSwap := make(chan struct{})
	swapDone := make(chan struct{})
	go func() {
		defer close(swapDone)
		engines := []*geoalign.Aligner{al1, al2}
		for i := 0; ; i++ {
			select {
			case <-stopSwap:
				return
			default:
			}
			old := reg.Swap("e", engines[i%2])
			if old != nil {
				select {
				case <-old.Drained():
				case <-time.After(5 * time.Second):
					t.Error("displaced engine generation never drained")
					return
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	const clients, perClient = 6, 15
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + c)))
			for r := 0; r < perClient; r++ {
				resp, httpResp := postAlign(t, hts.Client(), hts.URL, alignRequest{Engine: "e", Objective: randObjective(rng, 80)})
				switch httpResp.StatusCode {
				case http.StatusOK:
					if len(resp.Target) != 12 || len(resp.Weights) != 3 {
						t.Errorf("client %d: response shape %d/%d", c, len(resp.Target), len(resp.Weights))
					}
				case http.StatusTooManyRequests:
					// Acceptable under load.
				default:
					t.Errorf("client %d: status %d", c, httpResp.StatusCode)
				}
			}
		}(c)
	}
	wg.Wait()
	close(stopSwap)
	<-swapDone

	// Mid-flight shutdown: start a final wave, then gracefully stop the
	// HTTP server while it is in the air. Requests must either complete
	// normally or fail cleanly (connection refused / 503) — never hang.
	var wave sync.WaitGroup
	for c := 0; c < 4; c++ {
		wave.Add(1)
		go func(c int) {
			defer wave.Done()
			rng := rand.New(rand.NewSource(int64(200 + c)))
			body, _ := json.Marshal(alignRequest{Engine: "e", Objective: randObjective(rng, 80)})
			resp, err := hts.Client().Post(hts.URL+"/v1/align", contentTypeJSON, bytes.NewReader(body))
			if err != nil {
				return // connection torn down by shutdown: fine
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}(c)
	}
	time.Sleep(time.Millisecond)
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hts.Config.Shutdown(shutCtx); err != nil {
		t.Fatalf("http shutdown: %v", err)
	}
	s.Shutdown()
	wave.Wait()

	if _, _, err := s.coal.Submit(context.Background(), nil, nil); err != ErrShuttingDown {
		t.Errorf("Submit after Shutdown = %v, want ErrShuttingDown", err)
	}
}
