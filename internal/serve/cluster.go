package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"geoalign"
	"geoalign/internal/cluster/blobstore"
)

// Cluster wiring: when Config.Blobs is set, the server becomes a fleet
// citizen. It serves its content-addressed snapshot blobs to peers
// (GET /v1/blobs/{digest}), reports which digest serves each engine
// (GET /v1/cluster/manifest), and accepts manifest applies
// (POST /v1/cluster/manifest) that pull missing blobs from peer
// replicas, mmap them, and hot-swap engines through the registry's
// generational SwapOwned — the zero-downtime rollout path, fleet-wide.
//
// The warm-up protocol for scale-out is the same code run at boot:
// geoalignd applies its boot manifest (pull digest → mmap → register)
// before it starts listening, so by the time the router's health probe
// first sees the replica, every manifest engine is already mapped.
// Joining the ring therefore costs the snapshot *load* (~5ms per
// engine), never the build (~343ms).

// manifestApplyRequest is the JSON body of POST /v1/cluster/manifest.
type manifestApplyRequest struct {
	// Engines names the target fleet state (see blobstore.Manifest).
	Engines map[string]blobstore.ManifestEntry `json:"engines"`
	// FetchFrom are peer base URLs to pull missing blobs from, tried
	// in order before the server's configured origins.
	FetchFrom []string `json:"fetch_from,omitempty"`
	// Prune removes registered engines the manifest does not name.
	Prune bool `json:"prune,omitempty"`
}

// manifestEngineResult reports one engine's apply outcome.
type manifestEngineResult struct {
	// Status is "current" (digest already serving), "swapped" (new
	// generation published), "registered" (name was new), "removed"
	// (pruned), or "error".
	Status     string  `json:"status"`
	Generation int     `json:"generation,omitempty"`
	Digest     string  `json:"digest,omitempty"`
	Fetched    bool    `json:"fetched,omitempty"` // a network blob pull happened
	LoadMillis float64 `json:"load_millis,omitempty"`
	Error      string  `json:"error,omitempty"`
}

// manifestApplyResponse is the JSON body of a manifest apply.
type manifestApplyResponse struct {
	Engines map[string]manifestEngineResult `json:"engines"`
}

// mountCluster registers the cluster routes; called by NewServer when
// Config.Blobs is set.
func (s *Server) mountCluster() {
	s.mux.HandleFunc("GET "+blobstore.BlobPathPrefix+"{digest}", s.handleBlob)
	s.mux.HandleFunc("GET /v1/cluster/manifest", s.handleManifestGet)
	s.mux.HandleFunc("POST /v1/cluster/manifest", s.handleManifestApply)
}

func (s *Server) handleBlob(w http.ResponseWriter, r *http.Request) {
	s.metrics.blobRequests.Add(1)
	s.cfg.Blobs.ServeBlob(w, r, r.PathValue("digest"))
}

// Manifest reports the server's current engine→digest assignment:
// every registered engine whose metadata carries a snapshot digest.
// Engines built from crosswalks without a persisted snapshot have no
// content address and are omitted — they cannot be distributed.
func (s *Server) Manifest() *blobstore.Manifest {
	m := &blobstore.Manifest{Engines: make(map[string]blobstore.ManifestEntry)}
	for _, info := range s.registry.List() {
		if info.SnapshotDigest == "" {
			continue
		}
		m.Engines[info.Name] = blobstore.ManifestEntry{
			Digest:     info.SnapshotDigest,
			Generation: info.Generation,
		}
	}
	return m
}

func (s *Server) handleManifestGet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Manifest())
}

func (s *Server) handleManifestApply(w http.ResponseWriter, r *http.Request) {
	var req manifestApplyRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<24)).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "decoding manifest: "+err.Error())
		return
	}
	m, err := (&blobstore.Manifest{Engines: req.Engines}).Validate()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	resp := manifestApplyResponse{Engines: make(map[string]manifestEngineResult, len(m.Engines))}
	failed := false
	for _, name := range m.Names() {
		res := s.applyManifestEngine(r.Context(), name, m.Engines[name], req.FetchFrom)
		if res.Status == "error" {
			failed = true
		}
		resp.Engines[name] = res
	}
	if req.Prune {
		named := m.Engines
		for _, info := range s.registry.List() {
			if _, keep := named[info.Name]; keep {
				continue
			}
			s.registry.Remove(info.Name)
			resp.Engines[info.Name] = manifestEngineResult{Status: "removed"}
		}
	}
	status := http.StatusOK
	if failed {
		// Partial applies are visible per engine; the top-level status
		// says "not fully converged" so fleet tooling retries.
		status = http.StatusBadGateway
	}
	writeJSON(w, status, resp)
}

// applyManifestEngine converges one engine onto its manifest entry:
// skip if the digest already serves, otherwise ensure the blob is
// local (shared dir or peer fetch), mmap it, and hot-swap.
func (s *Server) applyManifestEngine(ctx context.Context, name string, want blobstore.ManifestEntry, fetchFrom []string) manifestEngineResult {
	s.metrics.manifestApplies.Add(1)
	if cur, err := s.registry.AcquireInstance(name); err == nil {
		curDigest := ""
		if m := cur.Meta(); m != nil {
			curDigest = m.SnapshotDigest
		}
		gen := cur.Generation()
		cur.release()
		if curDigest == want.Digest {
			return manifestEngineResult{Status: "current", Generation: gen, Digest: want.Digest}
		}
	}

	fetcher := &blobstore.Fetcher{
		Store:   s.cfg.Blobs,
		Origins: append(append([]string{}, fetchFrom...), s.cfg.BlobOrigins...),
		Client:  s.blobClient,
	}
	fetched, _, err := fetcher.Ensure(ctx, want.Digest)
	if err != nil {
		s.metrics.manifestErrors.Add(1)
		return manifestEngineResult{Status: "error", Digest: want.Digest, Error: err.Error()}
	}
	path, err := s.cfg.Blobs.Path(want.Digest)
	if err != nil {
		s.metrics.manifestErrors.Add(1)
		return manifestEngineResult{Status: "error", Digest: want.Digest, Error: err.Error()}
	}
	start := time.Now()
	al, snapMeta, err := s.openSnapshot(path)
	if err != nil {
		s.metrics.manifestErrors.Add(1)
		return manifestEngineResult{Status: "error", Digest: want.Digest, Fetched: fetched, Error: err.Error()}
	}
	took := time.Since(start)
	meta := &EngineMeta{
		Provenance:     "manifest",
		SnapshotPath:   path,
		SnapshotDigest: want.Digest,
	}
	if snapMeta != nil {
		meta.SourceKeys = snapMeta.SourceKeys
		meta.TargetKeys = snapMeta.TargetKeys
	}
	existed := s.registry.Generation(name) > 0
	s.registry.SwapOwnedWithMeta(name, al, took, meta)
	s.metrics.manifestSwaps.Add(1)
	status := "registered"
	if existed {
		status = "swapped"
	}
	return manifestEngineResult{
		Status:     status,
		Generation: s.registry.Generation(name),
		Digest:     want.Digest,
		Fetched:    fetched,
		LoadMillis: float64(took) / float64(time.Millisecond),
	}
}

// openSnapshot maps a snapshot file into a serving engine, via the
// configured opener or the default serving options.
func (s *Server) openSnapshot(path string) (*geoalign.Aligner, *geoalign.SnapshotMeta, error) {
	if s.cfg.OpenSnapshot != nil {
		return s.cfg.OpenSnapshot(path)
	}
	return geoalign.OpenSnapshot(path, nil)
}

// ApplyManifest converges the registry onto m synchronously: for each
// named engine, ensure the blob is local (pulling from fetchFrom, then
// the configured origins), mmap it, and register or hot-swap it. This
// is the boot-time warm-up path — geoalignd calls it before listening,
// so a scale-out replica joins the ring with every engine already
// mapped. Returns the first engine error, if any; engines already
// serving their manifest digest cost nothing.
func (s *Server) ApplyManifest(ctx context.Context, m *blobstore.Manifest, fetchFrom []string) error {
	if s.cfg.Blobs == nil {
		return ErrNoBlobStore
	}
	mm, err := m.Validate()
	if err != nil {
		return err
	}
	for _, name := range mm.Names() {
		if res := s.applyManifestEngine(ctx, name, mm.Engines[name], fetchFrom); res.Status == "error" {
			return fmt.Errorf("engine %q: %s", name, res.Error)
		}
	}
	return nil
}

// ErrNoBlobStore reports cluster calls on a server without Blobs.
var ErrNoBlobStore = errors.New("serve: no blob store configured")

// PublishSnapshot places an engine snapshot file into the blob store
// and returns its digest — how a boot-time registrant gives its
// engines content addresses peers can pull.
func (s *Server) PublishSnapshot(path string) (string, error) {
	if s.cfg.Blobs == nil {
		return "", ErrNoBlobStore
	}
	digest, _, err := s.cfg.Blobs.PutFile(path)
	return digest, err
}
