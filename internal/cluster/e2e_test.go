package cluster_test

// End-to-end fleet tests: real geoalignd serving stacks (registry,
// admission gate, blob store) behind a real router, exercising the
// paths the unit tests fake — digest pull, mmap warm-up, hot swap
// under live traffic, and ring rebalance when a replica dies.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"geoalign"
	"geoalign/internal/cluster"
	"geoalign/internal/cluster/blobstore"
	"geoalign/internal/serve"
	"geoalign/internal/synth"
)

// buildAligner builds a serving-configuration engine over a synthetic
// scaling problem (same construction the serve package pins bit-
// identity against).
func buildAligner(tb testing.TB, seed int64, ns, nt, k int) *geoalign.Aligner {
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

// publishSnapshot persists an engine and publishes it to a blob store.
func publishSnapshot(tb testing.TB, store *blobstore.Store, al *geoalign.Aligner) string {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "engine.snap")
	if err := al.WriteSnapshot(path, &geoalign.SnapshotMeta{}); err != nil {
		tb.Fatal(err)
	}
	digest, _, err := store.PutFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return digest
}

// replica is one real serving stack with its own blob store.
type replica struct {
	srv   *serve.Server
	ts    *httptest.Server
	store *blobstore.Store
}

func newReplica(tb testing.TB, cfg serve.Config) *replica {
	tb.Helper()
	store, err := blobstore.Open(filepath.Join(tb.TempDir(), "blobs"))
	if err != nil {
		tb.Fatal(err)
	}
	cfg.Blobs = store
	srv := serve.NewServer(serve.NewRegistry(), cfg)
	ts := httptest.NewServer(srv.Handler())
	tb.Cleanup(func() { ts.Close(); srv.Shutdown() })
	return &replica{srv: srv, ts: ts, store: store}
}

type alignReq struct {
	Engine    string    `json:"engine"`
	Objective []float64 `json:"objective"`
}

type alignResp struct {
	Engine string    `json:"engine"`
	Target []float64 `json:"target"`
}

func alignVia(client *http.Client, base string, req alignReq) (alignResp, int, string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return alignResp{}, 0, "", err
	}
	resp, err := client.Post(base+"/v1/align", "application/json", bytes.NewReader(body))
	if err != nil {
		return alignResp{}, 0, "", err
	}
	defer resp.Body.Close()
	shard := resp.Header.Get(cluster.ShardHeader)
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return alignResp{}, resp.StatusCode, shard, fmt.Errorf("align: %s: %s", resp.Status, msg)
	}
	var out alignResp
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return alignResp{}, resp.StatusCode, shard, err
	}
	return out, resp.StatusCode, shard, nil
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

// broadcastManifest rolls a manifest out fleet-wide through the router.
func broadcastManifest(tb testing.TB, routerURL string, engines map[string]blobstore.ManifestEntry, fetchFrom []string) {
	tb.Helper()
	body, _ := json.Marshal(map[string]any{"engines": engines, "fetch_from": fetchFrom})
	resp, err := http.Post(routerURL+"/v1/cluster/manifest", "application/json", bytes.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	detail, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		tb.Fatalf("manifest broadcast: %s: %s", resp.Status, detail)
	}
}

// TestClusterHotSwapMidTraffic is the headline zero-downtime test: two
// replicas behind a router serve continuous traffic while the fleet
// manifest moves engine "hot" from snapshot d1 to d2. Requirements:
// zero failed requests, every response bit-identical to exactly one of
// the two generations (no torn state), and only the new generation
// after the rollout converges.
func TestClusterHotSwapMidTraffic(t *testing.T) {
	const ns, nt, k = 120, 12, 2
	al1 := buildAligner(t, 21, ns, nt, k)
	al2 := buildAligner(t, 22, ns, nt, k)

	// Replica A doubles as the blob origin; B pulls digests from A.
	a := newReplica(t, serve.Config{})
	b := newReplica(t, serve.Config{})
	d1 := publishSnapshot(t, a.store, al1)
	d2 := publishSnapshot(t, a.store, al2)

	rt, err := cluster.NewRouter(cluster.RouterConfig{Replicas: []string{a.ts.URL, b.ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	routerTS := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { routerTS.Close(); rt.Close() })

	// Roll out generation 1 fleet-wide and pin the single-node
	// baselines both generations must match bit-for-bit.
	broadcastManifest(t, routerTS.URL, map[string]blobstore.ManifestEntry{"hot": {Digest: d1}}, []string{a.ts.URL})
	obj := randObjective(rand.New(rand.NewSource(5)), ns)
	want1, err := al1.Align(obj)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := al2.Align(obj)
	if err != nil {
		t.Fatal(err)
	}
	if floatsEqual(want1.Target, want2.Target) {
		t.Fatal("generations are indistinguishable; test cannot observe the swap")
	}

	// Continuous traffic: 4 clients hammer the router while the swap
	// lands. Every response must match exactly one generation.
	var (
		failed   atomic.Int64
		gen1Hits atomic.Int64
		gen2Hits atomic.Int64
		torn     atomic.Int64
		stop     atomic.Bool
		wg       sync.WaitGroup
	)
	client := &http.Client{}
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				out, status, _, err := alignVia(client, routerTS.URL, alignReq{Engine: "hot", Objective: obj})
				if err != nil || status != http.StatusOK {
					failed.Add(1)
					continue
				}
				switch {
				case floatsEqual(out.Target, want1.Target):
					gen1Hits.Add(1)
				case floatsEqual(out.Target, want2.Target):
					gen2Hits.Add(1)
				default:
					torn.Add(1)
				}
			}
		}()
	}

	// Let gen-1 traffic flow, swap mid-stream, let gen-2 traffic flow.
	time.Sleep(50 * time.Millisecond)
	broadcastManifest(t, routerTS.URL, map[string]blobstore.ManifestEntry{"hot": {Digest: d2}}, []string{a.ts.URL})
	time.Sleep(50 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if n := failed.Load(); n != 0 {
		t.Fatalf("%d requests failed during hot swap (want 0)", n)
	}
	if n := torn.Load(); n != 0 {
		t.Fatalf("%d responses matched neither generation (torn state)", n)
	}
	if gen1Hits.Load() == 0 || gen2Hits.Load() == 0 {
		t.Fatalf("swap not observed under traffic: gen1=%d gen2=%d", gen1Hits.Load(), gen2Hits.Load())
	}

	// Rollout converged: both replicas now serve generation 2 and say
	// so on the fleet manifest; further responses are gen-2 only.
	for _, rep := range []*replica{a, b} {
		if gen := rep.srv.Registry().Generation("hot"); gen != 2 {
			t.Fatalf("replica %s at generation %d, want 2", rep.ts.URL, gen)
		}
	}
	mresp, err := http.Get(routerTS.URL + "/v1/cluster/manifest")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Engines  map[string]blobstore.ManifestEntry `json:"engines"`
		Diverged []string                           `json:"diverged"`
	}
	json.NewDecoder(mresp.Body).Decode(&m)
	mresp.Body.Close()
	if m.Engines["hot"].Digest != d2 || len(m.Diverged) != 0 {
		t.Fatalf("fleet manifest after rollout: %+v", m)
	}
	out, _, _, err := alignVia(client, routerTS.URL, alignReq{Engine: "hot", Objective: obj})
	if err != nil || !floatsEqual(out.Target, want2.Target) {
		t.Fatalf("post-rollout response not generation-2 (err=%v)", err)
	}
}

// TestClusterRebalanceOnReplicaDeath kills one real replica under
// traffic and requires the fleet to keep answering: the first request
// to the dead shard fails over transparently, the replica is ejected,
// and the ring rebalances every engine onto the survivor with results
// still bit-identical to the single-node baseline.
func TestClusterRebalanceOnReplicaDeath(t *testing.T) {
	const ns, nt, k = 100, 10, 2
	al := buildAligner(t, 31, ns, nt, k)

	a := newReplica(t, serve.Config{})
	b := newReplica(t, serve.Config{})
	digest := publishSnapshot(t, a.store, al)

	rt, err := cluster.NewRouter(cluster.RouterConfig{Replicas: []string{a.ts.URL, b.ts.URL}, FailAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	routerTS := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { routerTS.Close(); rt.Close() })

	// Several engines, same snapshot, chosen so both replicas own at
	// least one (candidate names are probed against the ring until
	// each replica has two).
	engines := map[string]blobstore.ManifestEntry{}
	var names []string
	perReplica := map[string]int{}
	for i := 0; len(names) < 6; i++ {
		n := fmt.Sprintf("layer-%d", i)
		owner, ok := rt.Ring().Owner(n)
		if !ok {
			t.Fatal("ring empty")
		}
		if perReplica[owner] >= 3 {
			continue
		}
		perReplica[owner]++
		names = append(names, n)
		engines[n] = blobstore.ManifestEntry{Digest: digest}
	}
	broadcastManifest(t, routerTS.URL, engines, []string{a.ts.URL})

	obj := randObjective(rand.New(rand.NewSource(6)), ns)
	want, err := al.Align(obj)
	if err != nil {
		t.Fatal(err)
	}

	client := &http.Client{}
	ownedByB := ""
	for _, n := range names {
		out, status, shard, err := alignVia(client, routerTS.URL, alignReq{Engine: n, Objective: obj})
		if err != nil || status != http.StatusOK {
			t.Fatalf("pre-kill align %s: %v", n, err)
		}
		if !floatsEqual(out.Target, want.Target) {
			t.Fatalf("engine %s not bit-identical to baseline", n)
		}
		if shard == b.ts.URL {
			ownedByB = n
		}
	}
	if ownedByB == "" {
		t.Fatal("no engine served by replica b despite ring ownership")
	}

	// Kill b. Every engine — including those b owned — must keep
	// serving through a with zero failed requests.
	b.ts.Close()
	for _, n := range names {
		out, status, shard, err := alignVia(client, routerTS.URL, alignReq{Engine: n, Objective: obj})
		if err != nil || status != http.StatusOK {
			t.Fatalf("post-kill align %s: status=%d err=%v", n, status, err)
		}
		if shard != a.ts.URL {
			t.Fatalf("post-kill engine %s served by %q, want survivor %q", n, shard, a.ts.URL)
		}
		if !floatsEqual(out.Target, want.Target) {
			t.Fatalf("post-kill engine %s not bit-identical to baseline", n)
		}
	}

	// The ring converged on the survivor.
	if nodes := rt.Ring().Nodes(); len(nodes) != 1 || nodes[0] != a.ts.URL {
		t.Fatalf("ring after death = %v", nodes)
	}
	hresp, err := http.Get(routerTS.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
	}
	json.NewDecoder(hresp.Body).Decode(&health)
	hresp.Body.Close()
	if health.Status != "degraded" {
		t.Fatalf("cluster health = %q, want degraded", health.Status)
	}
}

// TestClusterWarmupIsMmapFast pins the scale-out story: a fresh
// replica joining with the blob already cached warms an engine by
// mmap, which must be far cheaper than rebuilding it. The e2e engine
// is small, so the bound here is generous; BenchmarkWarmup measures
// the US-scale numbers quoted in the README.
func TestClusterWarmupIsMmapFast(t *testing.T) {
	al := buildAligner(t, 41, 200, 16, 3)
	origin := newReplica(t, serve.Config{})
	digest := publishSnapshot(t, origin.store, al)

	fresh := newReplica(t, serve.Config{})
	body, _ := json.Marshal(map[string]any{
		"engines":    map[string]blobstore.ManifestEntry{"warm": {Digest: digest}},
		"fetch_from": []string{origin.ts.URL},
	})
	resp, err := http.Post(fresh.ts.URL+"/v1/cluster/manifest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Engines map[string]struct {
			Status     string  `json:"status"`
			Fetched    bool    `json:"fetched"`
			LoadMillis float64 `json:"load_millis"`
		} `json:"engines"`
	}
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	res := out.Engines["warm"]
	if resp.StatusCode != http.StatusOK || res.Status != "registered" || !res.Fetched {
		t.Fatalf("first warm-up: %d %+v", resp.StatusCode, res)
	}

	// Second replica warm-up with the blob pre-seeded (the common
	// scale-out path: shared image or earlier pull) must skip the
	// fetch entirely and just mmap.
	seeded := newReplica(t, serve.Config{})
	blobPath, err := fresh.store.Path(digest)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := seeded.store.PutFile(blobPath); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(seeded.ts.URL+"/v1/cluster/manifest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out.Engines = nil
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	res = out.Engines["warm"]
	if res.Status != "registered" || res.Fetched {
		t.Fatalf("seeded warm-up fetched over the network: %+v", res)
	}
	if res.LoadMillis <= 0 || res.LoadMillis > 1000 {
		t.Fatalf("seeded warm-up load_ms = %v", res.LoadMillis)
	}
}
