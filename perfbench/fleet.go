package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"geoalign"
	"geoalign/internal/cluster"
	"geoalign/internal/core"
	"geoalign/internal/serve"
	"geoalign/internal/synth"
)

// Engine shape served by the fleet: the paper's "Eastern Time Zone
// States" universe from the Fig. 6 scaling sweep (12486 ZCTA-like
// sources, 1052 county-like targets) with the US catalog's seven
// references. Full US scale (30238×3142) caps a 2-core host near 100
// misses/s, too few to collect 1000 samples per phase in one run.
const (
	engineSources = 12486
	engineTargets = 1052
	engineRefs    = 7
	engineName    = "us"
)

// Serving configuration. Everything not set here takes the defaults
// geoalignd and geoalignrouter use (MaxBatch 32, MaxWait 2ms,
// MaxInFlight 256, QueueWait 100ms, NumCPU engine workers, 128 vnodes,
// load factor 1.25, 2s probes). The result cache is off by default in
// geoalignd; both workloads turn it on so misses pay its lookup cost.
// 8 MiB holds about 290 encoded results: the hot working set fits
// several times over, and the warm-up fills it, so unique objectives
// meet a cache that is already evicting.
const (
	resultCacheBytes = 8 << 20
	replicaCount     = 2
)

// inputs is everything generated from --seed before any timing starts.
type inputs struct {
	problem    core.Problem // reference crosswalks (CSR) and a base objective
	refs       []geoalign.Reference
	degenerate []bool // source rows with no mass in any reference
}

func makeInputs(seed int64) (*inputs, error) {
	p := synth.ScalingProblem(rand.New(rand.NewSource(seed)), engineSources, engineTargets, engineRefs)
	in := &inputs{problem: p, degenerate: make([]bool, engineSources)}
	for i := range in.degenerate {
		in.degenerate[i] = true
	}
	for k, r := range p.References {
		xw := geoalign.NewCrosswalk(r.DM.Rows, r.DM.Cols)
		for i := 0; i < r.DM.Rows; i++ {
			cols, vals := r.DM.Row(i)
			for t, j := range cols {
				if err := xw.Add(i, j, vals[t]); err != nil {
					return nil, err
				}
				if vals[t] > 0 {
					in.degenerate[i] = false
				}
			}
		}
		in.refs = append(in.refs, geoalign.Reference{Name: fmt.Sprintf("ref-%d", k), Crosswalk: xw})
	}
	return in, nil
}

// replica is one in-process geoalignd: a registry holding the mapped
// snapshot, the serving layer, and its HTTP listener.
type replica struct {
	reg *serve.Registry
	srv *serve.Server
	hs  *http.Server
	url string
}

// fleet is the routed serving stack: a cluster router in front of two
// replicas, every hop over loopback TCP.
type fleet struct {
	replicas []*replica
	router   *cluster.Router
	hs       *http.Server
	url      string
	wg       sync.WaitGroup // http.Server.Serve goroutines
}

// setupTimes splits one fleet bring-up into its steps, in seconds. cpu
// is the process CPU time of the whole bring-up, total its wall time.
type setupTimes struct {
	build, write, total, cpu float64
	open                     []float64 // one per replica
}

// listen starts serving h on a loopback port and returns its base URL.
// The Serve goroutine is tracked by wg and exits when hs is closed.
func listen(wg *sync.WaitGroup, h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	wg.Add(1)
	go func() {
		defer wg.Done()
		hs.Serve(ln)
	}()
	return hs, "http://" + ln.Addr().String(), nil
}

// bringUp stands the fleet up the way a deployment does: build the
// engine from its crosswalks, persist the snapshot, have each replica
// map it and register it, then let the router probe the replicas once
// before it takes traffic. rec, when non-nil, wraps the router's and
// the replicas' handlers in span recorders. The built engine is
// returned as the reference for correctness checks.
func bringUp(ctx context.Context, in *inputs, dir string, rec *recorder) (*fleet, *geoalign.Aligner, setupTimes, error) {
	var st setupTimes
	t0, c0 := time.Now(), processCPU()
	al, err := geoalign.NewAligner(in.refs, &geoalign.AlignerOptions{DiscardCrosswalks: true})
	if err != nil {
		return nil, nil, st, fmt.Errorf("building engine: %w", err)
	}
	al.PrecomputeSolverCaches()
	t1 := time.Now()
	st.build = t1.Sub(t0).Seconds()
	path := filepath.Join(dir, engineName+".snap")
	if err := al.WriteSnapshot(path, nil); err != nil {
		return nil, nil, st, fmt.Errorf("writing snapshot: %w", err)
	}
	t2 := time.Now()
	st.write = t2.Sub(t1).Seconds()

	f := &fleet{}
	var urls []string
	for i := 0; i < replicaCount; i++ {
		to := time.Now()
		ral, _, err := geoalign.OpenSnapshot(path, &geoalign.AlignerOptions{DiscardCrosswalks: true})
		if err != nil {
			f.close()
			return nil, nil, st, fmt.Errorf("replica %d: opening snapshot: %w", i, err)
		}
		r := &replica{reg: serve.NewRegistry()}
		if err := r.reg.RegisterOwned(engineName, ral, time.Since(to)); err != nil {
			ral.Close()
			f.close()
			return nil, nil, st, err
		}
		st.open = append(st.open, time.Since(to).Seconds())
		r.srv = serve.NewServer(r.reg, serve.Config{ResultCacheBytes: resultCacheBytes})
		var h http.Handler = r.srv.Handler()
		if rec != nil {
			h = rec.wrap("serve.replica", h, false)
		}
		r.hs, r.url, err = listen(&f.wg, h)
		if err != nil {
			r.srv.Shutdown()
			r.reg.Remove(engineName)
			f.close()
			return nil, nil, st, err
		}
		f.replicas = append(f.replicas, r)
		urls = append(urls, r.url)
	}

	f.router, err = cluster.NewRouter(cluster.RouterConfig{Replicas: urls})
	if err != nil {
		f.close()
		return nil, nil, st, err
	}
	f.router.ProbeOnce(ctx)
	f.router.Start()
	var h http.Handler = f.router.Handler()
	if rec != nil {
		h = rec.wrap("cluster.router", h, true)
	}
	f.hs, f.url, err = listen(&f.wg, h)
	if err != nil {
		f.close()
		return nil, nil, st, err
	}
	st.total = time.Since(t0).Seconds()
	st.cpu = (processCPU() - c0).Seconds()
	return f, al, st, nil
}

// close stops the router and the replicas in serving order and waits
// for every Serve goroutine to return. Retiring the engine from each
// registry unmaps its snapshot.
func (f *fleet) close() {
	if f.hs != nil {
		f.hs.Close()
	}
	if f.router != nil {
		f.router.Close()
	}
	for _, r := range f.replicas {
		r.hs.Close()
		r.srv.Shutdown()
		r.reg.Remove(engineName)
	}
	f.wg.Wait()
}
