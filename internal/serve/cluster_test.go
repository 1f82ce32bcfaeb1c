package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"geoalign"
	"geoalign/internal/cluster/blobstore"
)

// publishTestSnapshot builds an engine, persists its snapshot, and
// publishes it to the store, returning the digest.
func publishTestSnapshot(t *testing.T, store *blobstore.Store, seed int64, ns, nt, k int) (string, *geoalign.Aligner) {
	t.Helper()
	al := testAligner(t, seed, ns, nt, k)
	path := filepath.Join(t.TempDir(), "engine.snap")
	if err := al.WriteSnapshot(path, &geoalign.SnapshotMeta{}); err != nil {
		t.Fatal(err)
	}
	digest, _, err := store.PutFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return digest, al
}

// newClusterServer builds a blob-enabled server over its own store.
func newClusterServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *blobstore.Store) {
	t.Helper()
	store, err := blobstore.Open(filepath.Join(t.TempDir(), "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Blobs = store
	srv := NewServer(NewRegistry(), cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Shutdown() })
	return srv, ts, store
}

func applyManifest(t *testing.T, url string, req manifestApplyRequest) (int, manifestApplyResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/cluster/manifest", contentTypeJSON, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out manifestApplyResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func TestManifestApplyPullAndServe(t *testing.T) {
	// Origin replica: holds the blob and serves it to peers.
	origin, originTS, originStore := newClusterServer(t, Config{})
	digest, al := publishTestSnapshot(t, originStore, 7, 120, 12, 2)
	if err := origin.Registry().Register("e1", al); err != nil {
		t.Fatal(err)
	}

	// Fresh replica: empty registry, empty store.
	replica, replicaTS, replicaStore := newClusterServer(t, Config{})

	status, out := applyManifest(t, replicaTS.URL, manifestApplyRequest{
		Engines:   map[string]blobstore.ManifestEntry{"e1": {Digest: digest}},
		FetchFrom: []string{originTS.URL},
	})
	if status != http.StatusOK {
		t.Fatalf("apply status = %d (%+v)", status, out)
	}
	res := out.Engines["e1"]
	if res.Status != "registered" || !res.Fetched || res.Generation != 1 {
		t.Fatalf("apply result = %+v", res)
	}
	if !replicaStore.Has(digest) {
		t.Fatal("blob not pulled into the replica store")
	}
	if replica.Registry().Generation("e1") != 1 {
		t.Fatal("engine not registered after apply")
	}
	if origin.Metrics().BlobRequests() != 1 {
		t.Fatalf("origin served %d blob requests, want 1", origin.Metrics().BlobRequests())
	}

	// The replica now reports the digest on its own manifest.
	mresp, err := http.Get(replicaTS.URL + "/v1/cluster/manifest")
	if err != nil {
		t.Fatal(err)
	}
	var m blobstore.Manifest
	json.NewDecoder(mresp.Body).Decode(&m)
	mresp.Body.Close()
	if m.Engines["e1"].Digest != digest {
		t.Fatalf("replica manifest = %+v", m)
	}

	// Re-applying the same manifest is a no-op: digest already serves.
	status, out = applyManifest(t, replicaTS.URL, manifestApplyRequest{
		Engines: map[string]blobstore.ManifestEntry{"e1": {Digest: digest}},
	})
	if status != http.StatusOK || out.Engines["e1"].Status != "current" {
		t.Fatalf("re-apply = %d %+v", status, out.Engines["e1"])
	}
	if gen := replica.Registry().Generation("e1"); gen != 1 {
		t.Fatalf("idempotent apply advanced generation to %d", gen)
	}

	// The pulled engine must serve byte-identically to the original.
	obj := randObjective(rand.New(rand.NewSource(3)), 120)
	wantRes, err := al.Align(obj)
	if err != nil {
		t.Fatal(err)
	}
	got, resp := postAlign(t, http.DefaultClient, replicaTS.URL, alignRequest{Engine: "e1", Objective: obj})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("align via pulled engine = %d", resp.StatusCode)
	}
	if !floatsEqual(got.Target, wantRes.Target) {
		t.Fatal("pulled engine's response is not bit-identical to the origin aligner")
	}
}

func TestManifestApplySwapAndPrune(t *testing.T) {
	origin, originTS, originStore := newClusterServer(t, Config{})
	_ = origin
	d1, _ := publishTestSnapshot(t, originStore, 11, 80, 8, 2)
	d2, _ := publishTestSnapshot(t, originStore, 13, 80, 8, 2)
	if d1 == d2 {
		t.Fatal("distinct engines share a digest")
	}

	replica, replicaTS, _ := newClusterServer(t, Config{BlobOrigins: []string{originTS.URL}})

	// First apply registers two engines, fetching via configured
	// origins (no fetch_from in the request).
	status, out := applyManifest(t, replicaTS.URL, manifestApplyRequest{
		Engines: map[string]blobstore.ManifestEntry{
			"a": {Digest: d1},
			"b": {Digest: d1},
		},
	})
	if status != http.StatusOK {
		t.Fatalf("apply = %d %+v", status, out)
	}

	// Second apply moves engine a to d2 (hot swap) and prunes b.
	status, out = applyManifest(t, replicaTS.URL, manifestApplyRequest{
		Engines: map[string]blobstore.ManifestEntry{"a": {Digest: d2}},
		Prune:   true,
	})
	if status != http.StatusOK {
		t.Fatalf("apply2 = %d %+v", status, out)
	}
	if res := out.Engines["a"]; res.Status != "swapped" || res.Generation != 2 {
		t.Fatalf("swap result = %+v", res)
	}
	if res := out.Engines["b"]; res.Status != "removed" {
		t.Fatalf("prune result = %+v", res)
	}
	if replica.Registry().Generation("b") != 0 {
		t.Fatal("pruned engine still registered")
	}
	if replica.Metrics().ManifestSwaps() != 3 {
		t.Fatalf("manifest swaps = %d, want 3", replica.Metrics().ManifestSwaps())
	}
}

func TestManifestApplyErrors(t *testing.T) {
	_, replicaTS, _ := newClusterServer(t, Config{})

	// Unfetchable digest: per-engine error, 502 top-level status.
	missing := blobstore.ManifestEntry{Digest: "sha256:" + repeatHex("4d", 32)}
	status, out := applyManifest(t, replicaTS.URL, manifestApplyRequest{
		Engines:   map[string]blobstore.ManifestEntry{"x": missing},
		FetchFrom: []string{"http://127.0.0.1:1"},
	})
	if status != http.StatusBadGateway || out.Engines["x"].Status != "error" {
		t.Fatalf("missing-blob apply = %d %+v", status, out.Engines["x"])
	}

	// Malformed digest: rejected wholesale with 400.
	body, _ := json.Marshal(manifestApplyRequest{
		Engines: map[string]blobstore.ManifestEntry{"x": {Digest: "not-a-digest"}},
	})
	resp, err := http.Post(replicaTS.URL+"/v1/cluster/manifest", contentTypeJSON, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed digest status = %d", resp.StatusCode)
	}

	// Blob endpoint 404s unknown digests and 400s malformed ones.
	for path, want := range map[string]int{
		"/v1/blobs/sha256:" + repeatHex("9c", 32): http.StatusNotFound,
		"/v1/blobs/sha256:zz":                     http.StatusBadRequest,
	} {
		resp, err := http.Get(replicaTS.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

func repeatHex(pair string, n int) string {
	b := make([]byte, 0, 2*n)
	for i := 0; i < n; i++ {
		b = append(b, pair...)
	}
	return string(b)
}
