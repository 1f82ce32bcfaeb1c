// Command geoalignd serves GeoAlign alignments over HTTP: a registry of
// named engines (each one fixed pair of unit systems with its reference
// crosswalks precomputed), request coalescing that merges concurrent
// single-attribute requests into one warm-started batch solve, and
// bounded-concurrency load shedding.
//
// Engines are loaded from reference crosswalk CSVs at startup:
//
//	geoalignd -addr :8417 \
//	    -engine zip2county=population_xwalk.csv,accidents_xwalk.csv
//
// Each -engine spec is name=xwalk1.csv[,xwalk2.csv...], where every
// file is a three-column CSV (source,target,value) as accepted by the
// geoalign CLI. The first crosswalk's source-unit order is extended by
// the remaining files (first-seen union) and becomes the order in which
// /v1/align expects objective values; target units are unioned the same
// way. -demo registers a synthetic "demo" engine for smoke testing
// without data files.
//
// With -snapshot-dir set, each engine first looks for <dir>/<name>.snap
// and maps it instead of rebuilding from the CSVs (near-zero cold
// start); when absent, the engine is built once and the snapshot is
// persisted atomically for the next boot. A present-but-unloadable
// snapshot is reported and rebuilt from the crosswalks.
//
// Endpoints: POST /v1/align, POST /v1/align/batch, GET /v1/engines,
// POST /v1/engines/{name}/delta, GET /healthz, GET /metrics. See
// internal/serve for the wire formats. The delta endpoint applies an
// incremental crosswalk/source revision and hot-swaps the derived
// engine in as a new generation; with -snapshot-dir and
// -snapshot-every N, every Nth applied delta re-persists the engine's
// snapshot so a restart boots the revised state.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"geoalign"
	"geoalign/internal/catalog"
	"geoalign/internal/cliflag"
	"geoalign/internal/cluster/blobstore"
	"geoalign/internal/serve"
	"geoalign/internal/sparse"
	"geoalign/internal/synth"
	"geoalign/internal/table"
)

// publishOnce guards the process-wide expvar name (Publish panics on
// duplicates; tests invoke run more than once).
var publishOnce sync.Once

// onListen, when set by tests, receives the bound address before the
// server starts accepting. onPprofListen is its -pprof-addr analogue.
var (
	onListen      func(net.Addr)
	onPprofListen func(net.Addr)
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "geoalignd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("geoalignd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", ":8417", "listen address")
		engineSpecs cliflag.Repeated
		demo        = fs.Bool("demo", false, "register a synthetic \"demo\" engine (500 sources, 40 targets, 3 references)")
		maxBatch    = fs.Int("max-batch", 32, "max requests per coalesced batch; <=1 disables coalescing")
		maxInflight = fs.Int("max-inflight", 256, "max admitted requests before shedding")
		queueWait   = fs.Duration("queue-wait", 100*time.Millisecond, "how long an arrival may wait for admission before a 429")
		reqTimeout  = fs.Duration("request-timeout", 0, "per-request deadline plumbed into the engine (0 = none)")
		workers     = fs.Int("workers", 0, "engine worker-pool size for batch solves (0 = NumCPU)")
		snapDir     = fs.String("snapshot-dir", "", "engine snapshot directory: map <name>.snap when present, else build and persist it")
		snapEvery   = fs.Int("snapshot-every", 0, "re-persist an engine's snapshot after every N applied deltas (needs -snapshot-dir; 0 = never)")
		cacheBytes  = fs.String("result-cache-bytes", "", "align result cache budget (e.g. 256MiB); repeated objectives answer from stored bytes, hot swaps invalidate; empty or 0 disables")
		pprofAddr   = fs.String("pprof-addr", "", "serve net/http/pprof on this separate address (e.g. localhost:6060); empty disables")
		blobDir     = fs.String("blob-dir", "", "content-addressed snapshot blob store directory; enables the cluster endpoints (/v1/blobs, /v1/cluster/manifest) and publishes boot engines by digest")
		manifestSrc = fs.String("manifest", "", "boot manifest (file path or http URL): engines pulled by digest, mapped, and registered before listening (needs -blob-dir)")
	)
	var fetchFrom cliflag.Repeated
	fs.Var(&engineSpecs, "engine", "name=xwalk1.csv[,xwalk2.csv...]; repeatable")
	fs.Var(&fetchFrom, "fetch-from", "peer replica base URL to pull missing blobs from; repeatable (needs -blob-dir)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(engineSpecs) == 0 && !*demo && *manifestSrc == "" {
		return fmt.Errorf("no engines: give at least one -engine spec, -demo, or -manifest")
	}
	if *blobDir == "" && (*manifestSrc != "" || len(fetchFrom) > 0) {
		return fmt.Errorf("-manifest and -fetch-from need -blob-dir")
	}
	resultCacheBytes, err := cliflag.ParseBytes(*cacheBytes)
	if err != nil {
		return fmt.Errorf("-result-cache-bytes: %w", err)
	}

	var blobs *blobstore.Store
	if *blobDir != "" {
		blobs, err = blobstore.Open(*blobDir)
		if err != nil {
			return fmt.Errorf("-blob-dir: %w", err)
		}
	}
	if *snapDir != "" {
		if err := os.MkdirAll(*snapDir, 0o755); err != nil {
			return fmt.Errorf("-snapshot-dir: %w", err)
		}
	}

	reg := serve.NewRegistry()
	// metas keeps each engine's boot-time unit keys so delta-triggered
	// snapshot re-persists carry the same metadata as the original file.
	// Written only during startup registration; read-only afterwards.
	metas := make(map[string]*geoalign.SnapshotMeta)
	for _, spec := range engineSpecs {
		name, paths, ok := strings.Cut(spec, "=")
		if !ok || name == "" || paths == "" {
			return fmt.Errorf("bad -engine spec %q, want name=xwalk1.csv[,xwalk2.csv...]", spec)
		}
		build := func() (*geoalign.Aligner, *geoalign.SnapshotMeta, error) {
			return loadEngine(strings.Split(paths, ","), *workers)
		}
		meta, err := registerEngine(reg, name, *snapDir, *workers, blobs, stderr, build)
		if err != nil {
			return fmt.Errorf("engine %q: %w", name, err)
		}
		metas[name] = meta
	}
	if *demo {
		meta, err := registerEngine(reg, "demo", *snapDir, *workers, blobs, stderr, demoEngine(*workers))
		if err != nil {
			return fmt.Errorf("demo engine: %w", err)
		}
		metas["demo"] = meta
	}

	// The alignment catalog indexes every registered engine as a
	// searchable crosswalk edge and serves /v1/catalog/search. With
	// -snapshot-dir it persists next to the engine snapshots and
	// survives restarts; without, it lives in memory only.
	cat := catalog.New()
	var catalogPersist func(*catalog.Catalog) error
	if *snapDir != "" {
		sidecar := filepath.Join(*snapDir, catalog.DefaultSidecarName)
		if loaded, err := catalog.Load(sidecar); err == nil {
			cat = loaded
			st := cat.Stats()
			fmt.Fprintf(stderr, "geoalignd: catalog: loaded %s (%d tables, %d edges)\n", sidecar, st.Tables, st.Edges)
		} else if !errors.Is(err, os.ErrNotExist) {
			// Like an unloadable snapshot: loud line, fresh index, and the
			// first persist overwrites the bad file.
			fmt.Fprintf(stderr, "geoalignd: catalog: %v; starting with a fresh index\n", err)
		}
		catalogPersist = func(c *catalog.Catalog) error {
			if err := c.Save(sidecar); err != nil {
				fmt.Fprintf(stderr, "geoalignd: catalog: persisting %s: %v\n", sidecar, err)
				return err
			}
			return nil
		}
	}

	cfg := serve.Config{
		MaxBatch:         *maxBatch,
		MaxInFlight:      *maxInflight,
		QueueWait:        *queueWait,
		RequestTimeout:   *reqTimeout,
		ResultCacheBytes: resultCacheBytes,
		Catalog:          cat,
		CatalogPersist:   catalogPersist,
		Blobs:            blobs,
		BlobOrigins:      fetchFrom,
	}
	if *snapDir != "" && *snapEvery > 0 {
		dir := *snapDir
		cfg.SnapshotEvery = *snapEvery
		cfg.SnapshotPersist = func(name string, al *geoalign.Aligner) error {
			path := filepath.Join(dir, name+".snap")
			al.PrecomputeSolverCaches()
			if err := al.WriteSnapshot(path, metas[name]); err != nil {
				fmt.Fprintf(stderr, "geoalignd: engine %q: re-persisting snapshot: %v\n", name, err)
				return err
			}
			fmt.Fprintf(stderr, "geoalignd: engine %q: re-wrote %s after deltas\n", name, path)
			return nil
		}
	}
	srv := serve.NewServer(reg, cfg)
	if catalogPersist != nil {
		// NewServer seeded the catalog with the registered engines; write
		// the sidecar once so even a crash before the first mutation
		// leaves a loadable index.
		catalogPersist(cat)
	}
	publishOnce.Do(func() { expvar.Publish("geoalignd", srv.Metrics().Var()) })

	// Warm-up protocol: converge onto the boot manifest — pull each
	// digest (no-op when the blob is cached locally), mmap, register —
	// strictly before listening, so the first health probe a router
	// sends already sees every manifest engine warm. This is what makes
	// scale-out cost the snapshot load, never the build.
	if *manifestSrc != "" {
		m, err := loadManifest(ctx, *manifestSrc)
		if err != nil {
			return fmt.Errorf("-manifest %s: %w", *manifestSrc, err)
		}
		start := time.Now()
		if err := srv.ApplyManifest(ctx, m, fetchFrom); err != nil {
			return fmt.Errorf("-manifest %s: %w", *manifestSrc, err)
		}
		fmt.Fprintf(stderr, "geoalignd: manifest: %d engines warm in %s\n",
			len(m.Engines), time.Since(start).Round(time.Microsecond))
	}

	// Profiling stays off the serving address: -pprof-addr binds its own
	// listener (typically loopback-only) with just the pprof handlers, so
	// exposing the API never exposes the profiler.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("-pprof-addr: %w", err)
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		ps := &http.Server{Handler: pmux}
		go ps.Serve(pln)
		defer ps.Close()
		if onPprofListen != nil {
			onPprofListen(pln.Addr())
		}
		fmt.Fprintf(stderr, "geoalignd: pprof on http://%s/debug/pprof/\n", pln.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if onListen != nil {
		onListen(ln.Addr())
	}
	fmt.Fprintf(stderr, "geoalignd: listening on %s with %d engines\n", ln.Addr(), reg.Len())

	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		srv.Shutdown()
		return err
	case <-ctx.Done():
	}
	// Graceful shutdown: stop accepting, let in-flight handlers (and the
	// coalesced batches they wait on) finish, then drain the serving
	// layer.
	fmt.Fprintln(stderr, "geoalignd: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	err = hs.Shutdown(shutCtx)
	srv.Shutdown()
	if serveErr := <-errc; serveErr != nil && serveErr != http.ErrServerClosed {
		return serveErr
	}
	return err
}

// registerEngine places the named engine into the registry, preferring
// a mapped snapshot over a crosswalk rebuild when snapDir is set. The
// fallback build path persists its result so the next boot takes the
// fast path. Engines are always registered owned with their startup
// cost: Close on a built engine is a no-op, and the load time feeds the
// /metrics cold-start gauge either way. The returned metadata (unit
// keys from the snapshot or the build) feeds delta-triggered
// re-persists.
func registerEngine(reg *serve.Registry, name, snapDir string, workers int, blobs *blobstore.Store, stderr io.Writer,
	build func() (*geoalign.Aligner, *geoalign.SnapshotMeta, error)) (*geoalign.SnapshotMeta, error) {
	start := time.Now()
	if snapDir != "" {
		path := filepath.Join(snapDir, name+".snap")
		al, meta, err := geoalign.OpenSnapshot(path, &geoalign.AlignerOptions{Workers: workers})
		switch {
		case err == nil:
			took := time.Since(start)
			em := engineMeta(meta, "snapshot", path)
			em.SnapshotDigest = publishBlob(blobs, name, path, stderr)
			if rerr := reg.RegisterOwnedWithMeta(name, al, took, em); rerr != nil {
				al.Close()
				return nil, rerr
			}
			fmt.Fprintf(stderr, "geoalignd: engine %q: mapped %s in %s (%d sources -> %d targets, %d references)\n",
				name, path, took.Round(time.Microsecond), al.SourceUnits(), al.TargetUnits(), al.References())
			return meta, nil
		case !errors.Is(err, os.ErrNotExist):
			// A present-but-unloadable snapshot deserves a loud line, but
			// the crosswalks remain the source of truth: rebuild and let
			// the persist below overwrite the bad file.
			fmt.Fprintf(stderr, "geoalignd: engine %q: %v; rebuilding from crosswalks\n", name, err)
		}
	}
	al, meta, err := build()
	if err != nil {
		return nil, err
	}
	took := time.Since(start)
	snapPath := ""
	if snapDir != "" {
		path := filepath.Join(snapDir, name+".snap")
		al.PrecomputeSolverCaches()
		if werr := al.WriteSnapshot(path, meta); werr != nil {
			fmt.Fprintf(stderr, "geoalignd: engine %q: persisting snapshot: %v\n", name, werr)
		} else {
			fmt.Fprintf(stderr, "geoalignd: engine %q: wrote %s\n", name, path)
			snapPath = path
		}
	}
	em := engineMeta(meta, "crosswalks", snapPath)
	if snapPath != "" {
		em.SnapshotDigest = publishBlob(blobs, name, snapPath, stderr)
	}
	if rerr := reg.RegisterOwnedWithMeta(name, al, took, em); rerr != nil {
		return nil, rerr
	}
	fmt.Fprintf(stderr, "geoalignd: engine %q: %d sources -> %d targets, %d references (built in %s)\n",
		name, al.SourceUnits(), al.TargetUnits(), al.References(), took.Round(time.Microsecond))
	return meta, nil
}

// publishBlob gives an engine snapshot a content address in the blob
// store so peer replicas can pull it by digest. Publication is
// best-effort at boot: a failure leaves the engine serving locally but
// undistributable, reported on stderr. Returns "" when no store is
// configured or the put fails.
func publishBlob(blobs *blobstore.Store, name, path string, stderr io.Writer) string {
	if blobs == nil {
		return ""
	}
	digest, _, err := blobs.PutFile(path)
	if err != nil {
		fmt.Fprintf(stderr, "geoalignd: engine %q: publishing blob: %v\n", name, err)
		return ""
	}
	return digest
}

// loadManifest reads a boot manifest from a local file or an http(s)
// URL (typically a peer replica's /v1/cluster/manifest).
func loadManifest(ctx context.Context, src string) (*blobstore.Manifest, error) {
	if strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://") {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, src, nil)
		if err != nil {
			return nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("fetching manifest: %s", resp.Status)
		}
		raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<24))
		if err != nil {
			return nil, err
		}
		return blobstore.DecodeManifest(raw)
	}
	return blobstore.ReadManifest(src)
}

// engineMeta lifts snapshot metadata into the registry's EngineMeta:
// unit keys (when the snapshot carried them), provenance, and the
// backing file. Engines registered with keys become searchable
// crosswalk edges in the alignment catalog.
func engineMeta(m *geoalign.SnapshotMeta, provenance, snapPath string) *serve.EngineMeta {
	em := &serve.EngineMeta{Provenance: provenance, SnapshotPath: snapPath}
	if m != nil {
		em.SourceKeys = m.SourceKeys
		em.TargetKeys = m.TargetKeys
	}
	return em
}

// loadEngine builds a serving engine from reference crosswalk CSVs. The
// union of source keys (first-seen order across files) fixes the
// objective layout; target keys are unioned the same way, and both key
// sets are returned as snapshot metadata.
func loadEngine(paths []string, workers int) (*geoalign.Aligner, *geoalign.SnapshotMeta, error) {
	xwalks := make([]*table.Crosswalk, 0, len(paths))
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, nil, err
		}
		cw, err := table.ReadCrosswalkCSV(f)
		f.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", p, err)
		}
		xwalks = append(xwalks, cw)
	}
	srcKeys := unionKeys(xwalks, func(cw *table.Crosswalk) []string { return cw.SourceKeys })
	tgtKeys := unionKeys(xwalks, func(cw *table.Crosswalk) []string { return cw.TargetKeys })
	refs := make([]geoalign.Reference, len(xwalks))
	for k, cw := range xwalks {
		dm, err := cw.ReorderTo(srcKeys, tgtKeys)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", paths[k], err)
		}
		xw, err := publicCrosswalk(dm)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", paths[k], err)
		}
		refs[k] = geoalign.Reference{Name: cw.Attribute, Crosswalk: xw}
	}
	al, err := newServingAligner(refs, workers)
	if err != nil {
		return nil, nil, err
	}
	return al, &geoalign.SnapshotMeta{SourceKeys: srcKeys, TargetKeys: tgtKeys}, nil
}

// demoEngine builds a synthetic scaling problem so the server can be
// exercised without data files. The build also fabricates unit keys
// ("src-0001", "tgt-01"), so the demo engine shows up as a catalog
// edge and /v1/catalog/search can be tried end to end.
func demoEngine(workers int) func() (*geoalign.Aligner, *geoalign.SnapshotMeta, error) {
	return func() (*geoalign.Aligner, *geoalign.SnapshotMeta, error) {
		const ns, nt = 500, 40
		p := synth.ScalingProblem(rand.New(rand.NewSource(42)), ns, nt, 3)
		refs := make([]geoalign.Reference, len(p.References))
		for k, r := range p.References {
			xw, err := publicCrosswalk(r.DM)
			if err != nil {
				return nil, nil, err
			}
			refs[k] = geoalign.Reference{Name: fmt.Sprintf("%s-%d", r.Name, k), Crosswalk: xw}
		}
		al, err := newServingAligner(refs, workers)
		if err != nil {
			return nil, nil, err
		}
		meta := &geoalign.SnapshotMeta{
			SourceKeys: make([]string, ns),
			TargetKeys: make([]string, nt),
		}
		for i := range meta.SourceKeys {
			meta.SourceKeys[i] = fmt.Sprintf("src-%04d", i+1)
		}
		for j := range meta.TargetKeys {
			meta.TargetKeys[j] = fmt.Sprintf("tgt-%02d", j+1)
		}
		return al, meta, nil
	}
}

func newServingAligner(refs []geoalign.Reference, workers int) (*geoalign.Aligner, error) {
	return geoalign.NewAligner(refs, &geoalign.AlignerOptions{Workers: workers})
}

func publicCrosswalk(dm *sparse.CSR) (*geoalign.Crosswalk, error) {
	xw := geoalign.NewCrosswalk(dm.Rows, dm.Cols)
	for i := 0; i < dm.Rows; i++ {
		cols, vals := dm.Row(i)
		for t, j := range cols {
			if err := xw.Add(i, j, vals[t]); err != nil {
				return nil, err
			}
		}
	}
	return xw, nil
}

func unionKeys(xwalks []*table.Crosswalk, keysOf func(*table.Crosswalk) []string) []string {
	seen := make(map[string]bool)
	var keys []string
	for _, cw := range xwalks {
		for _, k := range keysOf(cw) {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	return keys
}
