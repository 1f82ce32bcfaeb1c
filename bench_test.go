// Benchmarks regenerating the paper's evaluation artefacts (one per
// figure — see DESIGN.md's experiment index) plus micro-benchmarks for
// the algorithm's stages. Run all of them with
//
//	go test -bench=. -benchmem
//
// The figure benchmarks execute the full experiment per iteration on a
// reduced-scale universe, so -benchtime=1x is enough to regenerate the
// series; cmd/experiments runs the same code at larger scales and
// prints the tables.
package geoalign

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"geoalign/internal/core"
	"geoalign/internal/eval"
	"geoalign/internal/geom"
	"geoalign/internal/linalg"
	"geoalign/internal/partition"
	"geoalign/internal/synth"
	"geoalign/internal/table"
)

// Shared reduced-scale catalogs; building them is excluded from the
// timed region via sync.Once + b.ResetTimer.
var (
	benchOnce  sync.Once
	benchNY    *synth.Catalog
	benchUS    *synth.Catalog
	benchSetup error
)

func benchCatalogs(b *testing.B) (*synth.Catalog, *synth.Catalog) {
	b.Helper()
	benchOnce.Do(func() {
		ny, err := synth.BuildUniverse("New York State", synth.NYConfig(42, 0.08))
		if err != nil {
			benchSetup = err
			return
		}
		benchNY, err = synth.BuildCatalog(synth.NewYork, ny, 40000)
		if err != nil {
			benchSetup = err
			return
		}
		us, err := synth.BuildUniverse("United States", synth.USConfig(42, 0.012))
		if err != nil {
			benchSetup = err
			return
		}
		benchUS, err = synth.BuildCatalog(synth.UnitedStates, us, 60000)
		if err != nil {
			benchSetup = err
		}
	})
	if benchSetup != nil {
		b.Fatal(benchSetup)
	}
	return benchNY, benchUS
}

// BenchmarkFig5a regenerates Figure 5a: leave-one-dataset-out NRMSE on
// the New York State catalog, GeoAlign vs the dasymetric baselines.
func BenchmarkFig5a(b *testing.B) {
	ny, _ := benchCatalogs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := eval.CrossValidate(ny)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) != 8 {
			b.Fatalf("rows = %d", len(rep.Rows))
		}
	}
}

// BenchmarkFig5b regenerates Figure 5b on the United States catalog.
func BenchmarkFig5b(b *testing.B) {
	_, us := benchCatalogs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := eval.CrossValidate(us)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) != 10 {
			b.Fatalf("rows = %d", len(rep.Rows))
		}
	}
}

// BenchmarkFig6 regenerates Figure 6: GeoAlign runtime across the
// six-universe hierarchy at the paper's full unit counts (NY 1794/62 …
// US 30238/3142). The runtime experiment synthesises disaggregation
// matrices directly (§4.3 times only the algorithm), so full scale is
// cheap enough to benchmark.
func BenchmarkFig6(b *testing.B) {
	specs := eval.PaperRuntimeSpecs(1.0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := eval.RuntimeExperiment(specs, 7, 1, 42)
		if err != nil {
			b.Fatal(err)
		}
		if rep.SourceR2 < 0.5 {
			b.Fatalf("runtime not linear in source units: R² = %v", rep.SourceR2)
		}
	}
}

// BenchmarkFig7 regenerates Figure 7: prediction deviation under
// reference noise (reduced to 3 levels × 5 replicates per iteration;
// cmd/experiments runs the full 7×20 grid).
func BenchmarkFig7(b *testing.B) {
	_, us := benchCatalogs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := eval.NoiseExperiment(us, []float64{5, 20, 50}, 5, 42)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Cells) == 0 {
			b.Fatal("no cells")
		}
	}
}

// BenchmarkFig8 regenerates Figure 8: NRMSE under leave-n-references-out
// selection.
func BenchmarkFig8(b *testing.B) {
	_, us := benchCatalogs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := eval.SelectionExperiment(us)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) != 10 {
			b.Fatalf("rows = %d", len(rep.Rows))
		}
	}
}

// BenchmarkExt1 regenerates the EXT1 extension comparison (GeoAlign vs
// Tobler's pycnophylactic interpolation vs the naive regression of
// §3.2) on the reduced US catalog.
func BenchmarkExt1(b *testing.B) {
	_, us := benchCatalogs(b)
	grid := 4 * intSqrtBench(us.Universe.Source.Len())
	if grid < 96 {
		grid = 96
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := eval.ExtensionExperiment(us, grid)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) != 10 {
			b.Fatalf("rows = %d", len(rep.Rows))
		}
	}
}

func intSqrtBench(n int) int {
	s := 1
	for s*s < n {
		s++
	}
	return s
}

// BenchmarkDimensions exercises the §3.4 dimension-independence claim:
// the identical Align call on 1-D, 2-D-shaped and 3-D-shaped crosswalks
// of equal size.
func BenchmarkDimensions(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	problems := map[string]core.Problem{
		"1D": synth.ScalingProblem(rng, 500, 40, 3),
		"2D": synth.ScalingProblem(rng, 500, 40, 3),
		"3D": synth.ScalingProblem(rng, 500, 40, 3),
	}
	for name, p := range problems {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Align(p, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAlignUS times one full-scale GeoAlign run at the paper's
// United States size (30238 source units, 3142 target units, 7
// references) — the headline of §4.3: "less than 0.15 second".
func BenchmarkAlignUS(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	p := synth.ScalingProblem(rng, 30238, 3142, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Align(p, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWeightLearning isolates step 1 (Eq. 15) at US scale:
//
//   - gram: the steady-state fast path — a prebuilt Engine's cached
//     normal equations, per call only c = Aᵀb plus a k-space solve;
//   - cold: the one-shot path, Gram precomputation included per call;
//   - dense: the original solvers (tall augmented system, QR-based
//     NNLS inner solves), kept as the escape-hatch baseline.
func BenchmarkWeightLearning(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	p := synth.ScalingProblem(rng, 30238, 3142, 7)
	b.Run("gram", func(b *testing.B) {
		e, err := core.NewEngine(p.References, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.LearnWeights(p.Objective); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.LearnWeights(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dense", func(b *testing.B) {
		// The cold solve through the dense oracle instead of the Gram
		// form: the gap to cold is the solver win alone.
		for i := 0; i < b.N; i++ {
			cols := make([][]float64, len(p.References))
			for k, r := range p.References {
				src := r.Source
				if src == nil {
					src = r.DM.RowSums()
				}
				cols[k] = maxNormalised(src)
			}
			a, err := linalg.MatrixFromColumns(cols)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := linalg.SimplexLeastSquares(a, maxNormalised(p.Objective)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// maxNormalised returns v / max(v), the Eq. 15 normalisation.
func maxNormalised(v []float64) []float64 {
	mx := linalg.MaxAbs(v)
	out := make([]float64, len(v))
	for i, x := range v {
		if mx > 0 {
			out[i] = x / mx
		}
	}
	return out
}

// BenchmarkDasymetric times the single-reference baseline at US scale.
func BenchmarkDasymetric(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	p := synth.ScalingProblem(rng, 30238, 3142, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Dasymetric(p.Objective, p.References[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAlignerBatch times the many-attribute workload at the
// paper's Figure 8 scale (United States: 30238 source units, 3142
// target units, 7 references) with 32 objective attributes:
//
//   - serial-loop: the pre-Aligner path, one full core.Align (crosswalk
//     precomputation included) per attribute;
//   - batch-cold-parallel: NewAligner + AlignAll per iteration, the
//     attributes spread over the default worker count;
//   - batch-warm-parallel: AlignAll on a prebuilt Aligner — the steady
//     state of a long-lived service;
//   - batch-warm-serial: the same prebuilt Aligner with one worker,
//     isolating the precomputation win from the parallelism win.
//
// On a multi-core machine batch-warm-parallel vs serial-loop shows both
// effects compounded; on one core the gap is the amortised
// precomputation alone.
func BenchmarkAlignerBatch(b *testing.B) {
	const nAttrs = 32
	rng := rand.New(rand.NewSource(9))
	p := synth.ScalingProblem(rng, 30238, 3142, 7)
	refs := make([]Reference, len(p.References))
	for k, r := range p.References {
		xw := NewCrosswalk(r.DM.Rows, r.DM.Cols)
		for i := 0; i < r.DM.Rows; i++ {
			cols, vals := r.DM.Row(i)
			for t, j := range cols {
				if err := xw.Add(i, j, vals[t]); err != nil {
					b.Fatal(err)
				}
			}
		}
		refs[k] = Reference{Name: r.Name, Crosswalk: xw}
	}
	objectives := make([][]float64, nAttrs)
	for a := range objectives {
		obj := make([]float64, 30238)
		for i := range obj {
			obj[i] = rng.Float64() * 1e4
		}
		objectives[a] = obj
	}
	coreRefs := make([]core.Reference, len(refs))
	for k, r := range p.References {
		coreRefs[k] = core.Reference{Name: r.Name, DM: r.DM}
	}

	b.Run("serial-loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, obj := range objectives {
				if _, err := core.Align(core.Problem{Objective: obj, References: coreRefs}, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch-cold-parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			al, err := NewAligner(refs, nil)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := al.AlignAll(objectives); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch-warm-parallel", func(b *testing.B) {
		al, err := NewAligner(refs, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := al.AlignAll(objectives); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch-warm-serial", func(b *testing.B) {
		al, err := NewAligner(refs, &AlignerOptions{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := al.AlignAll(objectives); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// measureDMLayers lazily builds the BenchmarkMeasureDMUS layers: a
// zip→county-scale pair of convex Voronoi partitions (the shape of the
// paper's real inputs) and a same-scale pair of jagged non-convex star
// layers, which is where the cached triangulations pay off most.
var (
	measureDMOnce     sync.Once
	measureConvexSrc  *partition.PolygonSystem
	measureConvexTgt  *partition.PolygonSystem
	measureJaggedSrc  *partition.PolygonSystem
	measureJaggedTgt  *partition.PolygonSystem
	measureDMSetupErr error
)

// jaggedBenchLayer builds a g×g layer of 14–18-vertex star polygons on
// a jittered grid — non-convex units at controlled density.
func jaggedBenchLayer(rng *rand.Rand, g, verts int, span float64) []geom.Polygon {
	cell := span / float64(g)
	out := make([]geom.Polygon, 0, g*g)
	for r := 0; r < g; r++ {
		for c := 0; c < g; c++ {
			center := geom.Point{
				X: (float64(c) + 0.3 + 0.4*rng.Float64()) * cell,
				Y: (float64(r) + 0.3 + 0.4*rng.Float64()) * cell,
			}
			pg := make(geom.Polygon, verts)
			for k := 0; k < verts; k++ {
				ang := 2 * math.Pi * float64(k) / float64(verts)
				rad := cell * (0.3 + 0.4*rng.Float64())
				pg[k] = geom.Point{X: center.X + rad*math.Cos(ang), Y: center.Y + rad*math.Sin(ang)}
			}
			out = append(out, pg)
		}
	}
	return out
}

func measureDMLayers(b *testing.B) {
	b.Helper()
	measureDMOnce.Do(func() {
		u, err := synth.BuildUniverse("bench", synth.Config{
			Seed: 99, SourceUnits: 3000, TargetUnits: 300, Centers: 12,
		})
		if err != nil {
			measureDMSetupErr = err
			return
		}
		measureConvexSrc, measureConvexTgt = u.Source, u.Target
		rng := rand.New(rand.NewSource(99))
		measureJaggedSrc, err = partition.NewPolygonSystem(jaggedBenchLayer(rng, 55, 14, 100), nil)
		if err != nil {
			measureDMSetupErr = err
			return
		}
		measureJaggedTgt, err = partition.NewPolygonSystem(jaggedBenchLayer(rng, 17, 18, 100), nil)
		if err != nil {
			measureDMSetupErr = err
		}
	})
	if measureDMSetupErr != nil {
		b.Fatal(measureDMSetupErr)
	}
}

// BenchmarkMeasureDMUS times crosswalk preprocessing — the
// disaggregation matrix of the Lebesgue measure, §4.3's dominant cost —
// on zip→county-scale synthetic layers (3000 source / 300 target
// units). The convex pair is the Voronoi geometry every experiment
// uses; the nonconvex pair is the worst case the prepared-geometry
// cache targets. The -brute variants run the pre-dual-tree path (per-
// row R-tree queries, uncached kernels) for the speedup comparison the
// benchdiff snapshot records.
func BenchmarkMeasureDMUS(b *testing.B) {
	measureDMLayers(b)
	run := func(name string, src, tgt *partition.PolygonSystem, brute bool) {
		b.Run(name, func(b *testing.B) {
			partition.UseBruteJoin(brute)
			defer partition.UseBruteJoin(false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dm, err := partition.MeasureDM(src, tgt)
				if err != nil {
					b.Fatal(err)
				}
				if dm.NNZ() == 0 {
					b.Fatal("empty crosswalk")
				}
			}
		})
	}
	run("convex-voronoi", measureConvexSrc, measureConvexTgt, false)
	run("convex-voronoi-brute", measureConvexSrc, measureConvexTgt, true)
	run("nonconvex-jagged", measureJaggedSrc, measureJaggedTgt, false)
	run("nonconvex-jagged-brute", measureJaggedSrc, measureJaggedTgt, true)
}

// BenchmarkPublicAlign times the public facade on a mid-size problem,
// including crosswalk finalisation.
func BenchmarkPublicAlign(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	p := synth.ScalingProblem(rng, 2000, 200, 4)
	refs := make([]Reference, len(p.References))
	for k, r := range p.References {
		xw := NewCrosswalk(2000, 200)
		for i := 0; i < r.DM.Rows; i++ {
			cols, vals := r.DM.Row(i)
			for t, j := range cols {
				if err := xw.Add(i, j, vals[t]); err != nil {
					b.Fatal(err)
				}
			}
		}
		refs[k] = Reference{Name: r.Name, Crosswalk: xw}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Align(p.Objective, refs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeltaApply pins the incremental-maintenance value
// proposition at the paper's US scale (30238 source units, 3142
// targets, 7 references): deriving a revised engine from a single-row
// delta must beat rebuilding the engine from its crosswalks by an
// order of magnitude (the CI gate holds the ratio via the recorded
// ns/op of the sub-benchmarks). The arms cover the three maintenance
// tiers plus the rebuild baseline:
//
//   - value-row: one crosswalk row re-valued on its existing column
//     set — shares the row pointers and column indices, patches one
//     value array, and rank-one-updates the Gram system, copying one
//     design-matrix block (the arm fails above 1 MB allocated per delta);
//   - structural-row: the row's column set changes, so the patched
//     reference's CSR is rebuilt around the affected row;
//   - source-revision: one entry of a reference's source aggregate
//     moves, rescaling nothing structural but touching the design
//     matrix and its normal equations;
//   - full-rebuild: NewAligner from the same references, the path a
//     delta replaces.
func BenchmarkDeltaApply(b *testing.B) {
	p := synth.ScalingProblem(rand.New(rand.NewSource(9)), 30238, 3142, 7)
	refs := make([]Reference, len(p.References))
	for k, r := range p.References {
		xw := NewCrosswalk(r.DM.Rows, r.DM.Cols)
		for i := 0; i < r.DM.Rows; i++ {
			cols, vals := r.DM.Row(i)
			for t, j := range cols {
				if err := xw.Add(i, j, vals[t]); err != nil {
					b.Fatal(err)
				}
			}
		}
		refs[k] = Reference{Name: r.Name, Crosswalk: xw}
	}
	al, err := NewAligner(refs, nil)
	if err != nil {
		b.Fatal(err)
	}

	// Row 1000 of reference 0, revised in place: same columns with
	// values nudged 1% (value-row), and with its first column dropped
	// (structural-row). The nudge keeps every column max where it was,
	// staying on the rank-one fast path a real small revision takes.
	const row = 1000
	cols, vals := p.References[0].DM.Row(row)
	if len(cols) < 2 {
		b.Fatalf("bench row has %d entries, want >= 2", len(cols))
	}
	sameCols, nudged := append([]int(nil), cols...), append([]float64(nil), vals...)
	for i := range nudged {
		nudged[i] *= 1.01
	}
	deltas := map[string]Delta{
		"value-row": {RowPatches: []RowPatch{
			{Ref: 0, Row: row, Cols: sameCols, Vals: nudged},
		}},
		"structural-row": {RowPatches: []RowPatch{
			{Ref: 0, Row: row, Cols: sameCols[1:], Vals: nudged[1:]},
		}},
		"source-revision": {SourcePatches: []SourcePatch{
			{Ref: 0, Row: row, Value: 1.01 * vals[0]},
		}},
	}
	// An engine's first delta counts its per-row crosswalk entries once;
	// take that here so every arm times a steady-state delta.
	if _, err := al.ApplyDelta(deltas["value-row"]); err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"value-row", "structural-row", "source-revision"} {
		d := deltas[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < b.N; i++ {
				next, err := al.ApplyDelta(d)
				if err != nil {
					b.Fatal(err)
				}
				if next.SourceUnits() != al.SourceUnits() {
					b.Fatal("derived engine changed shape")
				}
			}
			runtime.ReadMemStats(&m1)
			// A value-row delta copies one design-matrix block, not the
			// whole matrix: pin it under 1 MB per delta.
			if perOp := (m1.TotalAlloc - m0.TotalAlloc) / uint64(b.N); name == "value-row" && perOp > 1_000_000 {
				b.Fatalf("value-row delta allocates %d B/op, want <= 1 MB", perOp)
			}
		})
	}
	b.Run("full-rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			next, err := NewAligner(refs, nil)
			if err != nil {
				b.Fatal(err)
			}
			if next.SourceUnits() != al.SourceUnits() {
				b.Fatal("rebuilt engine changed shape")
			}
		}
	})
}

// BenchmarkEngineColdStart pins the snapshot value proposition at the
// paper's US scale: mapping a persisted engine back must be at least an
// order of magnitude cheaper than standing it up from crosswalk files.
// Each arm starts from its on-disk artifact — the build arm from the
// reference crosswalk CSVs exactly as geoalignd boots them (parse,
// key-union, reorder, precompute), the snapshot arm from the .snap file
// those crosswalks produce — and ends with a ready-to-serve engine
// including solver caches. The CI regression gate holds the ratio via
// the recorded ns/op of the two sub-benchmarks.
func BenchmarkEngineColdStart(b *testing.B) {
	opts := &AlignerOptions{Workers: 4}

	// Render each reference as crosswalk CSV bytes, the serving
	// daemon's input format.
	p := synth.ScalingProblem(rand.New(rand.NewSource(9)), 30238, 3142, 7)
	csvs := make([][]byte, len(p.References))
	for k, r := range p.References {
		var sb bytes.Buffer
		fmt.Fprintf(&sb, "source,target,ref%d\n", k)
		for i := 0; i < r.DM.Rows; i++ {
			cols, vals := r.DM.Row(i)
			for pos, j := range cols {
				fmt.Fprintf(&sb, "s%05d,t%04d,%g\n", i, j, vals[pos])
			}
		}
		csvs[k] = sb.Bytes()
	}

	// buildFromCSVs is cmd/geoalignd's boot path: parse every
	// crosswalk, union the keys, reorder onto the shared indexing, and
	// precompute the engine.
	buildFromCSVs := func(b *testing.B) *Aligner {
		xwalks := make([]*table.Crosswalk, len(csvs))
		for k, raw := range csvs {
			cw, err := table.ReadCrosswalkCSV(bytes.NewReader(raw))
			if err != nil {
				b.Fatal(err)
			}
			xwalks[k] = cw
		}
		var srcKeys, tgtKeys []string
		srcSeen, tgtSeen := make(map[string]bool), make(map[string]bool)
		for _, cw := range xwalks {
			for _, k := range cw.SourceKeys {
				if !srcSeen[k] {
					srcSeen[k] = true
					srcKeys = append(srcKeys, k)
				}
			}
			for _, k := range cw.TargetKeys {
				if !tgtSeen[k] {
					tgtSeen[k] = true
					tgtKeys = append(tgtKeys, k)
				}
			}
		}
		refs := make([]Reference, len(xwalks))
		for k, cw := range xwalks {
			dm, err := cw.ReorderTo(srcKeys, tgtKeys)
			if err != nil {
				b.Fatal(err)
			}
			xw := NewCrosswalk(dm.Rows, dm.Cols)
			for i := 0; i < dm.Rows; i++ {
				cols, vals := dm.Row(i)
				for pos, j := range cols {
					if err := xw.Add(i, j, vals[pos]); err != nil {
						b.Fatal(err)
					}
				}
			}
			refs[k] = Reference{Name: cw.Attribute, Crosswalk: xw}
		}
		al, err := NewAligner(refs, opts)
		if err != nil {
			b.Fatal(err)
		}
		return al
	}

	built := buildFromCSVs(b)
	path := filepath.Join(b.TempDir(), "us.snap")
	if err := built.WriteSnapshot(path, nil); err != nil {
		b.Fatal(err)
	}

	b.Run("build", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			buildFromCSVs(b)
		}
	})
	b.Run("snapshot-load", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			al, _, err := OpenSnapshot(path, opts)
			if err != nil {
				b.Fatal(err)
			}
			al.Close()
		}
	})
}

// crosswalkBenchLayers lazily builds the BenchmarkCrosswalkBuildTiled
// layers: a zip→county-scale pair of TIGER-like jittered-lattice
// partitions, held in memory so the benchmark times the tiled join
// itself rather than disk reads.
var (
	crosswalkBenchOnce sync.Once
	crosswalkBenchSrc  []geom.MultiPolygon
	crosswalkBenchTgt  []geom.MultiPolygon

	perfbenchShapeOnce sync.Once
	perfbenchShapeSrc  []geom.MultiPolygon
	perfbenchShapeTgt  []geom.MultiPolygon
)

func collectTiger(cfg synth.TigerConfig) []geom.MultiPolygon {
	var units []geom.MultiPolygon
	synth.TigerLayer(cfg, func(i int, name string, parts geom.MultiPolygon) error {
		units = append(units, parts)
		return nil
	})
	return units
}

func crosswalkBenchLayers(b *testing.B) {
	b.Helper()
	crosswalkBenchOnce.Do(func() {
		crosswalkBenchSrc = collectTiger(synth.TigerConfig{Units: 3000, Seed: 5})
		crosswalkBenchTgt = collectTiger(synth.TigerConfig{Units: 150, Seed: 6})
	})
}

// perfbenchShapeLayers lazily builds the layer pair perfbench's offline
// stage joins at seed 1: 30000 × 1500 lattice units, seeds 3 and 4.
func perfbenchShapeLayers() {
	perfbenchShapeOnce.Do(func() {
		perfbenchShapeSrc = collectTiger(synth.TigerConfig{Units: 30000, Seed: 3})
		perfbenchShapeTgt = collectTiger(synth.TigerConfig{Units: 1500, Seed: 4})
	})
}

// reportPeakHeap runs fn while a sampling goroutine tracks the heap
// high-water mark, then attaches it to the benchmark as
// peak-heap-bytes. ReadMemStats briefly stops the world, so the sample
// period is kept coarse; the metric pins the bounded-memory claim of
// the out-of-core build rather than exact allocation totals.
func reportPeakHeap(b *testing.B, fn func()) {
	runtime.GC()
	stop := make(chan struct{})
	done := make(chan uint64)
	go func() {
		var ms runtime.MemStats
		var peak uint64
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
			select {
			case <-stop:
				done <- peak
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
	}()
	fn()
	close(stop)
	b.ReportMetric(float64(<-done), "peak-heap-bytes")
}

// BenchmarkCrosswalkBuildTiled times the out-of-core crosswalk build on
// zip→county-scale lattice layers (3000×150 units) against the
// in-memory MeasureDM path, each reported with its heap high-water
// mark. The tiled variants re-prepare geometry per tile, so their extra
// time is the price of the bounded footprint (tiled-1x1 is the join
// with no tiling cost but the codec round trip); the spill variant adds
// a deliberately tiny budget to include the disk round-trip. The
// perfbench-shape variant is perfbench's offline build in-process: its
// 30000 × 1500 layer pair, a 1 MiB budget (every build spills) and one
// worker. Every variant reports its allocations. perfbench-shape runs
// last, so the large layers it keeps do not count in the other
// variants' peak-heap-bytes.
func BenchmarkCrosswalkBuildTiled(b *testing.B) {
	crosswalkBenchLayers(b)
	src := partition.SliceStream(crosswalkBenchSrc)
	tgt := partition.SliceStream(crosswalkBenchTgt)
	runTiled := func(name string, opt partition.TiledOptions) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			reportPeakHeap(b, func() {
				for i := 0; i < b.N; i++ {
					dm, _, err := partition.TiledMeasureDM(src, tgt, opt)
					if err != nil {
						b.Fatal(err)
					}
					if dm.NNZ() == 0 {
						b.Fatal("empty crosswalk")
					}
				}
			})
		})
	}
	runTiled("tiled-1x1", partition.TiledOptions{TileCols: 1, TileRows: 1})
	runTiled("tiled-4x4", partition.TiledOptions{TileCols: 4, TileRows: 4})
	runTiled("tiled-spill", partition.TiledOptions{
		TileCols: 4, TileRows: 4,
		MemBudget: 1 << 20,
		SpillDir:  b.TempDir(),
	})
	b.Run("inmemory", func(b *testing.B) {
		b.ReportAllocs()
		reportPeakHeap(b, func() {
			for i := 0; i < b.N; i++ {
				srcSys, err := partition.NewMultiPolygonSystem(crosswalkBenchSrc, nil)
				if err != nil {
					b.Fatal(err)
				}
				tgtSys, err := partition.NewMultiPolygonSystem(crosswalkBenchTgt, nil)
				if err != nil {
					b.Fatal(err)
				}
				dm, err := partition.MeasureDM(srcSys, tgtSys)
				if err != nil {
					b.Fatal(err)
				}
				if dm.NNZ() == 0 {
					b.Fatal("empty crosswalk")
				}
			}
		})
	})
	b.Run("perfbench-shape", func(b *testing.B) {
		perfbenchShapeLayers()
		src := partition.SliceStream(perfbenchShapeSrc)
		tgt := partition.SliceStream(perfbenchShapeTgt)
		opt := partition.TiledOptions{MemBudget: 1 << 20, Workers: 1, SpillDir: b.TempDir()}
		b.ReportAllocs()
		reportPeakHeap(b, func() {
			for i := 0; i < b.N; i++ {
				dm, _, err := partition.TiledMeasureDM(src, tgt, opt)
				if err != nil {
					b.Fatal(err)
				}
				if dm.NNZ() == 0 {
					b.Fatal("empty crosswalk")
				}
			}
		})
	})
}
