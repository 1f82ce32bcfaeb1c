// Command perfbench is the repository benchmark. It generates its
// inputs from -seed, stands up the routed serving stack in one process
// (a cluster router in front of two serve replicas on loopback, with
// geoalignd's and geoalignrouter's defaults), times the offline
// crosswalk build, batch alignment and cross-validation, drives
// /v1/align at fixed offered loads, checks every output it can, and
// prints one JSON line of metrics:
//
//	go run . -workload serve-miss -seed 1 -seconds 45 -trace 0
//
// -trace 0 prints the end-to-end metrics; -trace 1 repeats the run with
// span recording and prints the per-layer metrics instead, writing the
// spans to <workdir>/spans-<workload>-<seed>.jsonl. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"geoalign"
)

// workload is one traffic mix. Rates are fixed offered loads for the
// 2-core host the benchmark was sized on, never derived from the
// system under test, so a faster build is measured at the same load.
type workload struct {
	name     string
	hot      bool    // Zipf-hot objectives plus deltas, instead of all-unique objectives
	lightRPS float64 // well below capacity
	heavyRPS float64 // about half to two-thirds of capacity
}

var workloads = []workload{
	{
		name:     "serve-miss",
		lightRPS: 80,
		heavyRPS: 120,
	},
	{
		name:     "serve-hot-delta",
		hot:      true,
		lightRPS: 200,
		heavyRPS: 300,
	},
}

const (
	// hot-delta traffic: a Zipf(s) draw over a working set whose
	// encoded results fit the result cache several times over, with
	// value-row deltas at a fixed rate beside the reads. The three
	// values are assumptions, not taken from a request log; README.md
	// gives the measured effect of s and the delta rate on the p99s.
	hotWorkingSet = 64
	hotZipfS      = 1.3
	hotDeltaRPS   = 2
	// Both workloads end with a delta-only phase at this rate: 3060
	// deltas at -seconds 45.
	deltaPhaseRPS = 340
	// setupReps is how many times a run brings the fleet up; setup_s is
	// the median.
	setupReps = 15
	// lateFrac bounds the generator's own lateness: a run whose median
	// lateness over the open-loop phases exceeds lateFrac times the
	// light phase's p50 latency fell behind its schedule and is invalid.
	// The p99 is reported but not gated: on two cores a wake-up can wait
	// a millisecond for a CPU the server holds, which is the server's
	// load, not a slow generator.
	lateFrac = 0.5
)

// Shares of -seconds given to each stage. They sum to 1.
const (
	shareOffline = 0.14
	shareWarm    = 0.05
	shareLight   = 0.30
	shareHeavy   = 0.26
	shareClosed  = 0.05
	shareDeltas  = 0.20
)

// capacityWindow is the width of the windows over which the closed
// loop's completion rate is taken; latency.capacity_rps is their median, so a
// GC cycle or a host hiccup moves one window, not the figure.
const capacityWindow = 500 * time.Millisecond

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: serve-miss or serve-hot-delta")
	seed := fs.Int64("seed", 1, "input generation seed")
	seconds := fs.Float64("seconds", 45, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	workDir := fs.String("workdir", ".bench_build", "directory for snapshots, spill files and span output")
	corrupt := fs.Bool("corrupt", false, "flip one float in each sampled response before checking; the run must then fail")
	zipfS := fs.Float64("zipf-s", hotZipfS, "serve-hot-delta: Zipf exponent of the objective draw (sensitivity studies only)")
	deltaRPS := fs.Float64("hot-delta-rps", hotDeltaRPS, "serve-hot-delta: deltas per second beside the reads (sensitivity studies only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) || *zipfS <= 1 || *deltaRPS <= 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload serve-miss|serve-hot-delta, -seconds > 0, -trace 0|1, -zipf-s > 1, -hot-delta-rps > 0\n")
		return 2
	}
	b := &bench{
		wl:          *wl,
		seed:        *seed,
		seconds:     *seconds,
		traced:      *trace == 1,
		workDir:     *workDir,
		corrupt:     *corrupt,
		zipfS:       *zipfS,
		hotDeltaRPS: *deltaRPS,
		log:         stdout,
	}
	out, err := b.run(context.Background())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

type bench struct {
	wl          workload
	seed        int64
	seconds     float64
	traced      bool
	workDir     string
	corrupt     bool
	zipfS       float64
	hotDeltaRPS float64
	log         io.Writer
}

func (b *bench) share(f float64) time.Duration {
	return time.Duration(f * b.seconds * float64(time.Second))
}

func (b *bench) run(ctx context.Context) (*output, error) {
	if err := os.MkdirAll(b.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(b.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	in, err := makeInputs(b.seed)
	if err != nil {
		return nil, err
	}
	deltas, deltaBodies, err := makeDeltas(in, b.seed, int(b.seconds*(shareDeltas*deltaPhaseRPS+2*b.hotDeltaRPS))+64)
	if err != nil {
		return nil, err
	}
	var rec *recorder
	if b.traced {
		rec = newRecorder()
	}

	cal := newCalibrator()

	// Fleet bring-up, repeated; the last fleet serves the run.
	var f *fleet
	var al *geoalign.Aligner
	var setups []setupTimes
	for i := 0; i < setupReps; i++ {
		if f != nil {
			f.close()
		}
		cal.sample()
		runtime.GC()
		var st setupTimes
		f, al, st, err = bringUp(ctx, in, dir, rec)
		if err != nil {
			return nil, fmt.Errorf("fleet bring-up: %w", err)
		}
		setups = append(setups, st)
	}
	defer f.close()
	snapPath := filepath.Join(dir, engineName+".snap")

	ost, err := newOffline(b.seed, al, dir, cal)
	if err != nil {
		return nil, err
	}

	g := newLoadgen(ctx, f, in.problem.Objective, deltaBodies, rec, cal)
	defer g.close()
	stopCal := cal.background()
	sv, err := b.serve(g, f, ost)
	stopCal()
	if err != nil {
		return nil, err
	}
	scale := cal.scale()
	off := &ost.out
	fmt.Fprintf(b.log, "offline: %d crosswalk builds (median %.3fs, %.3f CPU s), %d batches (median %.0f attrs/s), %d cross-validations (median %.3fs)\n",
		len(off.buildS), median(off.buildS), median(off.buildCPU), len(off.batchRate), median(off.batchRate), len(off.cvS), median(off.cvS))

	// Correctness checks run after every timed phase.
	if b.corrupt {
		for _, s := range g.samples {
			s.body[len(s.body)-8] ^= 0x01 // lowest mantissa bit of the last weight
		}
	}
	var failures []error
	if b.wl.hot {
		checked, err := checkMirrored(snapPath, in, g.samples, sv.deltaRecs, deltas)
		if err == nil && checked < 10 {
			err = fmt.Errorf("only %d sampled responses fell between delta acknowledgements", checked)
		}
		failures = append(failures, err)
	} else {
		failures = append(failures, checkDirect(al, in, g.samples))
	}
	failures = append(failures, checkBatch(al, in, off), checkOffline(off))
	correct := true
	for _, err := range failures {
		if err != nil {
			correct = false
			fmt.Fprintln(b.log, "check failed:", err)
		}
	}
	if sv.lateP50 > lateFrac*sv.light.p50 {
		// The latencies describe the generator, not the system.
		return nil, fmt.Errorf("invalid run: generator late by %.3f ms at the median, more than %.0f%% of the light phase's p50 %.3f ms",
			sv.lateP50, 100*lateFrac, sv.light.p50)
	}

	out := &output{
		Correct:   correct,
		Attempted: sv.sent + off.operations,
		Failed:    sv.sent - sv.ok,
		Metrics:   map[string]metric{},
	}
	put := func(name, unit string, v float64) { out.Metrics[name] = metric{Value: v, Unit: unit} }
	var setupS, setupCPU, buildS, writeS, openMs []float64
	for _, st := range setups {
		setupS = append(setupS, st.total)
		setupCPU = append(setupCPU, st.cpu)
		buildS = append(buildS, st.build)
		writeS = append(writeS, st.write)
		for _, o := range st.open {
			openMs = append(openMs, 1000*o)
		}
	}
	fmt.Fprintf(b.log, "setup: %d bring-ups, median %.3fs wall, %.3f CPU s\n", len(setups), median(setupS), median(setupCPU))
	fmt.Fprintf(b.log, "calibration: %d kernel runs, scale %.4f (CPU times below are multiplied by it)\n", cal.count(), scale)
	if !b.traced {
		// Timings here are process CPU time scaled to the nominal host
		// speed (calib.go); the wall-clock latencies are in the phase
		// lines above and in the traced run's metrics.
		put("setup_s", "s", median(setupCPU)*scale)
		put("light_cpu_ms", "ms", sv.light.cpuMs*scale)
		put("heavy_cpu_ms", "ms", sv.heavy.cpuMs*scale)
		put("delta_cpu_ms", "ms", sv.deltas.cpuMs*scale)
		put("ok_ratio", "ratio", float64(sv.ok)/float64(sv.sent))
		put("xwalk_cpu_s", "s", median(off.buildCPU)*scale)
		put("nrmse_mean", "ratio", off.nrmseMean)
		put("peak_rss_mib", "MiB", peakRSSMiB())
		return out, nil
	}

	lay := rec.breakdown(sv.lightAligns)
	ct, err := coreTimings(snapPath, in, deltas, b.share(0.1))
	if err != nil {
		return nil, err
	}
	for k, v := range ct {
		put(k, "ms", v)
	}
	put("cluster.router_self_p50_ms", "ms", lay.routerSelfP50)
	put("http.transport_p50_ms", "ms", lay.transportP50)
	put("serve.handler_p50_ms", "ms", lay.handlerP50)
	put("serve.parse_ms", "ms", sv.stage("parse"))
	put("serve.queue_ms", "ms", sv.stage("queue"))
	put("serve.solve_ms", "ms", sv.stage("solve"))
	put("serve.encode_ms", "ms", sv.stage("encode"))
	put("serve.batch_mean", "count", ratio(sv.after.batched-sv.before.batched, sv.after.batches-sv.before.batches))
	lookups := (sv.after.hits - sv.before.hits) + (sv.after.misses - sv.before.misses) + (sv.after.merged - sv.before.merged)
	put("serve.cache_hit_ratio", "ratio", ratio(sv.after.hits-sv.before.hits, lookups))
	put("serve.cache_merged", "count", float64(sv.after.merged-sv.before.merged))
	put("serve.shed", "count", float64(sv.after.shed-sv.before.shed))
	put("cluster.retries", "count", float64(sv.retries))
	put("serve.delta_handler_p50_ms", "ms", rec.replicaP50(sv.deltaReqs))
	put("core.engine_build_s", "s", median(buildS))
	put("snapshot.write_s", "s", median(writeS))
	put("snapshot.open_ms", "ms", median(openMs))
	put("partition.measure_s", "s", median(off.buildS))
	put("partition.scan_s", "s", median(off.scanS))
	put("partition.pairs_evaluated", "count", float64(off.stats.PairsEvaluated))
	put("partition.spilled_mib", "MiB", float64(off.stats.SpilledBytes)/(1<<20))
	put("eval.crossval_s", "s", median(off.cvS))
	put("runtime.alloc_kib_per_req", "KiB", sv.allocKiBPerReq)
	put("runtime.gc_cycles", "count", float64(sv.gcCycles))
	put("loadgen.late_p99_ms", "ms", sv.lateP99)
	put("loadgen.sent", "count", float64(sv.sent))
	put("trace.unexplained_frac", "ratio", lay.unexplainedFrac)
	put("trace.overhead_frac", "ratio", sv.light.p50/sv.untracedLight.p50-1)
	put("latency.light_p50_ms", "ms", sv.untracedLight.p50)
	put("latency.light_p99_ms", "ms", sv.untracedLight.p99)
	put("latency.heavy_p50_ms", "ms", sv.heavy.p50)
	put("latency.heavy_p99_ms", "ms", sv.heavy.p99)
	put("latency.capacity_rps", "1/s", sv.capacity)
	put("latency.delta_p50_ms", "ms", median(sv.deltaLat))
	put("fleet.setup_wall_s", "s", median(setupS))
	put("offline.batch_attrs_per_s", "1/s", median(off.batchRate))
	spanPath := filepath.Join(b.workDir, fmt.Sprintf("spans-%s-%d.jsonl", b.wl.name, b.seed))
	if err := rec.write(spanPath); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(b.log, "spans: %s (%d light-phase requests traced)\n", spanPath, lay.requests)
	return out, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// serveCounters sums the replicas' serving counters at one instant.
type serveCounters struct {
	hits, misses, merged, shed, batches, batched int64
	stageCount                                   map[string]int64
	stageMs                                      map[string]float64
}

func readCounters(f *fleet) serveCounters {
	c := serveCounters{stageCount: map[string]int64{}, stageMs: map[string]float64{}}
	for _, r := range f.replicas {
		m := r.srv.Metrics()
		c.hits += m.CacheHits()
		c.misses += m.CacheMisses()
		c.merged += m.SingleflightMerged()
		c.shed += m.Shed()
		c.batches += m.Batches()
		c.batched += m.BatchedRequests()
		lat, _ := m.Snapshot()["latency"].(map[string]any)
		for stage, v := range lat {
			st, _ := v.(map[string]any)
			n, _ := st["count"].(int64)
			total, _ := st["total_ms"].(float64)
			c.stageCount[stage] += n
			c.stageMs[stage] += total
		}
	}
	return c
}

// routerRetries reads the router's failover count from its /metrics.
func routerRetries(f *fleet) (int64, error) {
	rr := httptest.NewRecorder()
	f.router.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var m struct {
		Retries int64 `json:"retries"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &m); err != nil {
		return 0, fmt.Errorf("router metrics: %w", err)
	}
	return m.Retries, nil
}

// serveResult is what the serving phases measured.
type serveResult struct {
	light, heavy     phaseSummary
	deltas           phaseSummary // the delta-only phase
	untracedLight    phaseSummary // traced runs only
	capacity         float64
	sent, ok         int
	lateP50, lateP99 float64
	deltaLat         []float64
	deltaRecs        []record
	before, after    serveCounters
	retries          int64
	allocKiBPerReq   float64
	gcCycles         uint32
	lightAligns      map[int64]bool // request ids of the light phase's aligns
	deltaReqs        map[int64]bool
}

func (s *serveResult) stage(name string) float64 {
	n := s.after.stageCount[name] - s.before.stageCount[name]
	if n == 0 {
		return 0
	}
	return (s.after.stageMs[name] - s.before.stageMs[name]) / float64(n)
}

// serve runs the workload's load phases against the fleet.
// The offline stage's work runs in four parts between the phases.
func (b *bench) serve(g *loadgen, f *fleet, ost *offline) (*serveResult, error) {
	wl := b.wl
	// Unique objectives take keys above the Zipf working set.
	keyBase, deltaBase := int64(hotWorkingSet), int64(0)
	var zipf []int64
	if wl.hot {
		rng := rand.New(rand.NewSource(b.seed + 29))
		z := rand.NewZipf(rng, b.zipfS, 1, hotWorkingSet-1)
		zipf = make([]int64, 1<<16)
		for i := range zipf {
			zipf[i] = int64(z.Uint64())
		}
	}
	// phase builds a load phase and advances the key and delta cursors
	// past the events it can schedule. Hot phases draw objectives from
	// the Zipf working set, the others make every objective unique.
	phase := func(name string, rps float64, dur time.Duration, deltaRPS float64, hot, traced bool) phaseSpec {
		kb, db := keyBase, deltaBase
		every := 0
		if deltaRPS > 0 {
			every = int(math.Max(1, math.Round(rps/deltaRPS)))
		}
		n := int(rps * dur.Seconds())
		if rps == 0 {
			n = 1 << 20 // closed loop: key space reserved for any achievable count
		}
		keyBase += int64(n)
		if every > 0 {
			deltaBase += int64(n / every)
		}
		return phaseSpec{name: name, rps: rps, dur: dur, traced: traced, event: func(i int) (eventKind, int64) {
			if every > 0 && i%every == every-1 {
				return evDelta, db + int64(i/every)
			}
			if hot {
				return evAlign, zipf[(kb+int64(i))%int64(len(zipf))]
			}
			return evAlign, kb + int64(i)
		}}
	}
	hotDeltas := 0.0
	if wl.hot {
		hotDeltas = b.hotDeltaRPS
	}

	res := &serveResult{lightAligns: map[int64]bool{}, deltaReqs: map[int64]bool{}}
	runPhase := func(ps phaseSpec) *phaseResult {
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		p := g.run(ps)
		runtime.ReadMemStats(&ms1)
		p.gcCycles = ms1.NumGC - ms0.NumGC
		return p
	}
	offlinePart := func() error { return ost.part(b.share(shareOffline) / 4) }
	if err := offlinePart(); err != nil {
		return nil, err
	}
	// The warm-up runs at the heavy rate, long enough to fill the result
	// cache, so timed phases see its steady state (evicting) rather than
	// a heap that grows while they run.
	runPhase(phase("warm-up", wl.heavyRPS, b.share(shareWarm), 0, wl.hot, false))
	res.before = readCounters(f)
	var timed []*phaseResult
	if b.traced {
		// The light phase untraced first: the baseline for the tracing
		// overhead, and the window for the runtime counters.
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		p := g.run(phase("light-untraced", wl.lightRPS, b.share(shareLight), hotDeltas, wl.hot, false))
		runtime.ReadMemStats(&ms1)
		timed = append(timed, p)
		res.untracedLight = summarize(p)
		res.allocKiBPerReq = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / float64(len(p.recs))
		res.gcCycles = ms1.NumGC - ms0.NumGC
	}
	light := runPhase(phase("light", wl.lightRPS, b.share(shareLight), hotDeltas, wl.hot, b.traced))
	if err := offlinePart(); err != nil {
		return nil, err
	}
	heavy := runPhase(phase("heavy", wl.heavyRPS, b.share(shareHeavy), hotDeltas, wl.hot, b.traced))
	if err := offlinePart(); err != nil {
		return nil, err
	}
	// Capacity is the solve path's in both workloads: a closed loop of
	// unique objectives, which no cache can answer.
	closed := runPhase(phase("closed", 0, b.share(shareClosed), 0, false, b.traced))
	// Deltas alone, so their cost is not mixed with the reads'.
	deltas := runPhase(phase("deltas", deltaPhaseRPS, b.share(shareDeltas), deltaPhaseRPS, false, b.traced))
	timed = append(timed, light, heavy, closed, deltas)
	if err := offlinePart(); err != nil {
		return nil, err
	}
	res.after = readCounters(f)
	var err error
	if res.retries, err = routerRetries(f); err != nil {
		return nil, err
	}
	for _, r := range light.recs {
		if r.kind == evAlign {
			res.lightAligns[r.req] = true
		}
	}

	var late []float64
	for _, p := range timed {
		s := summarize(p)
		fmt.Fprintf(b.log, "phase %-14s rps=%-5g sent=%-6d ok=%-6d failed=%-4d shed=%-4d deltas_ok=%-4d p50=%.3fms p99=%.3fms late_p50=%.3fms late_p99=%.3fms cpu=%.3fms/req gc=%d wall=%.1fs\n",
			p.spec.name, p.spec.rps, s.sent, s.ok, s.failed, s.shed, len(s.deltaLat), s.p50, s.p99, s.lateP50, s.lateP99, s.cpuMs, p.gcCycles, p.elapsed.Seconds())
		res.sent += s.sent
		res.ok += s.ok
		res.deltaLat = append(res.deltaLat, s.deltaLat...)
		for _, r := range p.recs {
			if r.kind == evDelta {
				res.deltaRecs = append(res.deltaRecs, r)
				res.deltaReqs[r.req] = true
			}
			if p.spec.rps > 0 {
				late = append(late, float64(r.late)/1e6)
			}
		}
	}
	res.lateP50, res.lateP99 = quantile(late, 0.5), quantile(late, 0.99)
	res.light, res.heavy, res.deltas = summarize(light), summarize(heavy), summarize(deltas)
	res.capacity = windowRate(closed, capacityWindow)
	fmt.Fprintf(b.log, "latency.delta_p50_ms over %d acknowledged deltas\n", len(res.deltaLat))
	return res, nil
}

// makeDeltas generates n value-row deltas: each re-values one random
// non-empty crosswalk row on its own columns, scaling the generated
// values by a factor in [0.98, 1).
func makeDeltas(in *inputs, seed int64, n int) ([]geoalign.Delta, [][]byte, error) {
	rng := rand.New(rand.NewSource(seed + 13))
	var ds []geoalign.Delta
	var bodies [][]byte
	for len(ds) < n {
		k, row := rng.Intn(engineRefs), rng.Intn(engineSources)
		cols, vals := in.problem.References[k].DM.Row(row)
		if len(cols) == 0 {
			continue
		}
		scaled := make([]float64, len(vals))
		for i, v := range vals {
			scaled[i] = v * (0.98 + 0.02*rng.Float64())
		}
		d := geoalign.Delta{RowPatches: []geoalign.RowPatch{{Ref: k, Row: row, Cols: append([]int(nil), cols...), Vals: scaled}}}
		body, err := json.Marshal(d)
		if err != nil {
			return nil, nil, err
		}
		ds = append(ds, d)
		bodies = append(bodies, body)
	}
	return ds, bodies, nil
}

// coreTimings times the engine's public entry points one call at a
// time on a mapped copy of the served engine, each repeated until its
// share of budget is used: Weights (c=Aᵀb plus the Gram solve), Align
// (weights plus redistribution), AlignAll of one objective (the
// coalescer's call at low load), AlignAll of 32 (a full coalesced
// batch), and value-row ApplyDelta.
func coreTimings(snapPath string, in *inputs, deltas []geoalign.Delta, budget time.Duration) (map[string]float64, error) {
	al, _, err := geoalign.OpenSnapshot(snapPath, &geoalign.AlignerOptions{DiscardCrosswalks: true})
	if err != nil {
		return nil, err
	}
	defer al.Close()
	objs := make([][]float64, 32)
	for j := range objs {
		objs[j] = objectiveFor(in.problem.Objective, 1<<30+int64(j))
	}
	j := 0
	nextObj := func() []float64 { j++; return objs[j%len(objs)] }
	each := func(fn func() error) (float64, error) {
		reps, _, err := timeReps(20, budget/5, nil, fn)
		return 1000 * median(reps), err
	}
	out := map[string]float64{}
	var errs []error
	var v float64
	v, err = each(func() error { _, err := al.Weights(nextObj()); return err })
	out["core.weights_p50_ms"], errs = v, append(errs, err)
	v, err = each(func() error { _, err := al.Align(nextObj()); return err })
	out["core.align_p50_ms"], errs = v, append(errs, err)
	out["core.redistribute_p50_ms"] = out["core.align_p50_ms"] - out["core.weights_p50_ms"]
	v, err = each(func() error { _, err := al.AlignAll([][]float64{nextObj()}); return err })
	out["core.batch1_p50_ms"], errs = v, append(errs, err)
	v, err = each(func() error { _, err := al.AlignAll(objs); return err })
	out["core.batch32_ms_per_attr"], errs = v/float64(len(objs)), append(errs, err)
	// Deltas chain the way the delta handler applies them: each one
	// derives from the engine the previous one produced.
	cur := al
	v, err = each(func() error {
		j++
		next, err := cur.ApplyDelta(deltas[j%len(deltas)])
		if err != nil {
			return err
		}
		if cur != al {
			cur.Close()
		}
		cur = next
		return nil
	})
	out["core.delta_apply_p50_ms"], errs = v, append(errs, err)
	return out, errors.Join(errs...)
}

// peakRSSMiB is the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
