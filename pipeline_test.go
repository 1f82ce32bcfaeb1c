package geoalign

// Integration tests exercising the full pipeline across modules: the
// synthetic-universe generator, the geometry stack, file-format round
// trips, the partition layer and the public API — the path a real user
// of the paper's system would take from raw layers to a realigned
// table.

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"geoalign/internal/eval"
	"geoalign/internal/geojson"
	"geoalign/internal/geom"
	"geoalign/internal/partition"
	"geoalign/internal/shapefile"
	"geoalign/internal/synth"
)

// TestPipelineEndToEnd builds a universe, exports both layers through
// GeoJSON and shapefile, re-imports them, rebuilds the unit systems,
// recomputes the geometric crosswalk, aggregates points, and runs the
// public Align — asserting consistency along the whole path.
func TestPipelineEndToEnd(t *testing.T) {
	u, err := synth.BuildUniverse("itest", synth.Config{Seed: 5, SourceUnits: 60, TargetUnits: 7, Centers: 5})
	if err != nil {
		t.Fatal(err)
	}

	// --- Export/import the source layer via GeoJSON. ---
	var lay geojson.Layer
	for i, pg := range u.SourceDiagram.Cells {
		lay.Features = append(lay.Features, geojson.Feature{
			Polygon:    pg,
			Properties: map[string]any{"name": u.Source.Names[i]},
		})
	}
	var buf bytes.Buffer
	if err := geojson.Write(&buf, &lay); err != nil {
		t.Fatal(err)
	}
	back, err := geojson.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	srcSys, err := partition.NewPolygonSystem(back.Polygons(), back.Names())
	if err != nil {
		t.Fatal(err)
	}

	// --- Export/import the target layer via shapefile. ---
	sf := &shapefile.File{Fields: []shapefile.Field{{Name: "NAME", Length: 16}}}
	for i, pg := range u.TargetDiagram.Cells {
		sf.Records = append(sf.Records, shapefile.Record{
			Polygon: pg,
			Attrs:   map[string]string{"NAME": u.Target.Names[i]},
		})
	}
	shp, _, dbf, err := shapefile.Write(sf)
	if err != nil {
		t.Fatal(err)
	}
	sfBack, err := shapefile.Read(shp, dbf)
	if err != nil {
		t.Fatal(err)
	}
	tgtPolys := make([]geom.Polygon, len(sfBack.Records))
	tgtNames := make([]string, len(sfBack.Records))
	for i, r := range sfBack.Records {
		tgtPolys[i] = r.Polygon
		tgtNames[i] = r.Attrs["NAME"]
	}
	tgtSys, err := partition.NewPolygonSystem(tgtPolys, tgtNames)
	if err != nil {
		t.Fatal(err)
	}
	if tgtSys.Len() != u.Target.Len() || srcSys.Len() != u.Source.Len() {
		t.Fatalf("layer sizes changed through I/O: %d/%d", srcSys.Len(), tgtSys.Len())
	}

	// --- Geometric crosswalk from the re-imported layers matches the
	// one computed from the originals. ---
	dmIO, err := partition.MeasureDM(srcSys, tgtSys)
	if err != nil {
		t.Fatal(err)
	}
	dmOrig, err := partition.MeasureDM(u.Source, u.Target)
	if err != nil {
		t.Fatal(err)
	}
	rsIO, rsOrig := dmIO.RowSums(), dmOrig.RowSums()
	for i := range rsIO {
		if math.Abs(rsIO[i]-rsOrig[i]) > 1e-6*(1+rsOrig[i]) {
			t.Fatalf("row %d measure changed through I/O: %v vs %v", i, rsIO[i], rsOrig[i])
		}
	}

	// --- Aggregate a point dataset through the re-imported systems and
	// realign an attribute with the public API. ---
	rng := rand.New(rand.NewSource(8))
	pts := make([][]float64, 5000)
	for i := range pts {
		pts[i] = []float64{rng.Float64() * 100, rng.Float64() * 100}
	}
	popDM, dropped, err := partition.PointDM(srcSys, tgtSys, pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Fatalf("%v in-bounds points dropped", dropped)
	}
	popXW := NewCrosswalk(srcSys.Len(), tgtSys.Len())
	areaXW := NewCrosswalk(srcSys.Len(), tgtSys.Len())
	for i := 0; i < popDM.Rows; i++ {
		cols, vals := popDM.Row(i)
		for k, j := range cols {
			if err := popXW.Add(i, j, vals[k]); err != nil {
				t.Fatal(err)
			}
		}
		cols, vals = dmIO.Row(i)
		for k, j := range cols {
			if err := areaXW.Add(i, j, vals[k]); err != nil {
				t.Fatal(err)
			}
		}
	}
	objective := popXW.SourceTotals() // attribute == the point counts
	res, err := Align(objective, []Reference{
		{Name: "points", Crosswalk: popXW},
		{Name: "area", Crosswalk: areaXW},
	})
	if err != nil {
		t.Fatal(err)
	}
	truth := popXW.TargetTotals()
	for j := range truth {
		if math.Abs(res.Target[j]-truth[j]) > 1e-6*(1+truth[j]) {
			t.Fatalf("estimate %v != truth %v at %d", res.Target[j], truth[j], j)
		}
	}
	if res.Weights[0] < 0.9 {
		t.Fatalf("weights = %v, want the exact reference dominant", res.Weights)
	}
}

// TestFacadeMatchesEvalProtocol cross-checks the public API against the
// internal experiment harness on one cross-validation fold.
func TestFacadeMatchesEvalProtocol(t *testing.T) {
	u, err := synth.BuildUniverse("itest", synth.Config{Seed: 9, SourceUnits: 80, TargetUnits: 9, Centers: 6})
	if err != nil {
		t.Fatal(err)
	}
	cat, err := synth.BuildCatalog(synth.NewYork, u, 8000)
	if err != nil {
		t.Fatal(err)
	}
	test := cat.Datasets[0]
	var refs []Reference
	for _, d := range cat.Datasets[1:] {
		xw := NewCrosswalk(u.Source.Len(), u.Target.Len())
		for i := 0; i < d.DM.Rows; i++ {
			cols, vals := d.DM.Row(i)
			for k, j := range cols {
				if err := xw.Add(i, j, vals[k]); err != nil {
					t.Fatal(err)
				}
			}
		}
		refs = append(refs, Reference{Name: d.Name, Source: d.Source, Crosswalk: xw})
	}
	res, err := Align(test.Source, refs)
	if err != nil {
		t.Fatal(err)
	}
	nrmse := NRMSE(res.Target, test.Target)
	if math.IsNaN(nrmse) || nrmse > 2 {
		t.Fatalf("facade NRMSE = %v", nrmse)
	}
	// Compare with the internal metric implementation.
	if internal := eval.NRMSE(res.Target, test.Target); internal != nrmse {
		t.Errorf("metric mismatch: %v vs %v", nrmse, internal)
	}
}

// TestAlignPermutationInvariance checks that permuting the target-unit
// indexing permutes the estimate and nothing else.
func TestAlignPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	const ns, nt = 40, 8
	base := randomRef(rng, ns, nt)
	other := randomRef(rng, ns, nt)
	objective := base.Crosswalk.SourceTotals()
	res1, err := Align(objective, []Reference{base, other})
	if err != nil {
		t.Fatal(err)
	}
	// Permute target columns.
	perm := rng.Perm(nt)
	permute := func(r Reference) Reference {
		xw := NewCrosswalk(ns, nt)
		for i := 0; i < ns; i++ {
			for j := 0; j < nt; j++ {
				if v := r.Crosswalk.At(i, j); v != 0 {
					if err := xw.Add(i, perm[j], v); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		return Reference{Name: r.Name, Crosswalk: xw}
	}
	res2, err := Align(objective, []Reference{permute(base), permute(other)})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < nt; j++ {
		if math.Abs(res1.Target[j]-res2.Target[perm[j]]) > 1e-9 {
			t.Fatalf("permutation broke estimate at %d: %v vs %v", j, res1.Target[j], res2.Target[perm[j]])
		}
	}
	for k := range res1.Weights {
		if math.Abs(res1.Weights[k]-res2.Weights[k]) > 1e-7 {
			t.Fatalf("permutation changed weights: %v vs %v", res1.Weights, res2.Weights)
		}
	}
}

// TestAlignReferenceScaleInvariance: multiplying a reference's values by
// a positive constant must not change the estimate (max-normalisation in
// weight learning, share-based redistribution in disaggregation).
func TestAlignReferenceScaleInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const ns, nt = 30, 6
	a := randomRef(rng, ns, nt)
	b := randomRef(rng, ns, nt)
	objective := make([]float64, ns)
	for i := range objective {
		objective[i] = rng.Float64() * 100
	}
	res1, err := Align(objective, []Reference{a, b})
	if err != nil {
		t.Fatal(err)
	}
	scaled := NewCrosswalk(ns, nt)
	for i := 0; i < ns; i++ {
		for j := 0; j < nt; j++ {
			if v := a.Crosswalk.At(i, j); v != 0 {
				if err := scaled.Add(i, j, v*1000); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	res2, err := Align(objective, []Reference{{Name: a.Name, Crosswalk: scaled}, b})
	if err != nil {
		t.Fatal(err)
	}
	for j := range res1.Target {
		if math.Abs(res1.Target[j]-res2.Target[j]) > 1e-6*(1+math.Abs(res1.Target[j])) {
			t.Fatalf("scaling a reference changed the estimate: %v vs %v", res1.Target, res2.Target)
		}
	}
}

func randomRef(rng *rand.Rand, ns, nt int) Reference {
	xw := NewCrosswalk(ns, nt)
	for i := 0; i < ns; i++ {
		k := 1 + rng.Intn(3)
		for c := 0; c < k; c++ {
			if err := xw.Add(i, rng.Intn(nt), 1+rng.Float64()*50); err != nil {
				panic(err)
			}
		}
	}
	return Reference{Name: "r", Crosswalk: xw}
}

// TestFullScaleNewYork runs the paper-sized New York State experiment
// end to end (1794 source units, 62 target units, 400k-point budget)
// and asserts the headline claims of §4.2 hold at full scale. Skipped
// in -short mode; takes a couple of seconds otherwise.
func TestFullScaleNewYork(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	u, err := synth.BuildUniverse("New York State", synth.NYConfig(42, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	if u.Source.Len() != 1794 || u.Target.Len() != 62 {
		t.Fatalf("unit counts %d/%d", u.Source.Len(), u.Target.Len())
	}
	cat, err := synth.BuildCatalog(synth.NewYork, u, 400000)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eval.CrossValidate(cat)
	if err != nil {
		t.Fatal(err)
	}
	wins, comps := rep.WinLossSummary(0.10)
	if comps != 8 || wins < 6 {
		t.Errorf("GeoAlign within 10%% of the best dasymetric on %d/%d full-scale datasets", wins, comps)
	}
	if f := rep.ArealWeightingFactor(); f < 15 {
		t.Errorf("areal weighting factor = %.1f, paper claims >15x for NY", f)
	}
	for _, row := range rep.Rows {
		if row.GeoAlign > 0.5 {
			t.Errorf("%s: full-scale GeoAlign NRMSE = %.3f, want < 0.5", row.Dataset, row.GeoAlign)
		}
	}
}
