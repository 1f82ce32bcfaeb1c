package partition

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"geoalign/internal/geom"
	"geoalign/internal/sparse"
)

// jaggedLayer builds a layer of non-convex star polygons on a jittered
// g×g grid covering [0,span]². Cells overlap their neighbours, which is
// fine for MeasureDM equivalence testing (the kernel does not require a
// true partition).
func jaggedLayer(rng *rand.Rand, g int, span float64, verts int) []geom.Polygon {
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
				rad := cell * (0.25 + 0.45*rng.Float64())
				pg[k] = geom.Point{X: center.X + rad*math.Cos(ang), Y: center.Y + rad*math.Sin(ang)}
			}
			out = append(out, pg)
		}
	}
	return out
}

func csrsEqual(t *testing.T, a, b *sparse.CSR, context string, tol float64) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", context, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for i := 0; i <= a.Rows; i++ {
		if a.IndPtr[i] != b.IndPtr[i] {
			t.Fatalf("%s: indptr[%d] = %d vs %d", context, i, a.IndPtr[i], b.IndPtr[i])
		}
	}
	for k := range a.ColIdx {
		if a.ColIdx[k] != b.ColIdx[k] {
			t.Fatalf("%s: colidx[%d] = %d vs %d", context, k, a.ColIdx[k], b.ColIdx[k])
		}
		if math.Abs(a.Val[k]-b.Val[k]) > tol*(1+math.Abs(b.Val[k])) {
			t.Fatalf("%s: val[%d] = %.15g vs %.15g", context, k, a.Val[k], b.Val[k])
		}
	}
}

// bruteMeasureDM is the reference pairing MeasureDM's dual-tree join is
// checked against: serially, one R-tree Search per source part, each
// candidate pair measured by the uncached hole-aware kernel
// geom.HoledIntersectionArea.
func bruteMeasureDM(src, tgt *PolygonSystem) *sparse.CSR {
	coo := sparse.NewCOO(src.Len(), tgt.Len())
	for pi := range src.parts {
		a := holedPart(src, pi)
		for _, qj := range tgt.tree.Search(a.BBox(), nil) {
			if v := geom.HoledIntersectionArea(a, holedPart(tgt, qj)); v > 0 {
				coo.Add(src.partUnit[pi], tgt.partUnit[qj], v)
			}
		}
	}
	return coo.ToCSR()
}

// holedPart returns part k of s as a HoledPolygon of its CCW rings.
func holedPart(s *PolygonSystem, k int) geom.HoledPolygon {
	p := &s.parts[k]
	hp := geom.HoledPolygon{Outer: p.Outer.Ring()}
	for i := range p.Holes {
		hp.Holes = append(hp.Holes, p.Holes[i].Ring())
	}
	return hp
}

// measureBoth runs MeasureDM and the brute reference pairing and
// returns both results.
func measureBoth(t *testing.T, src, tgt *PolygonSystem) (join, brute *sparse.CSR) {
	t.Helper()
	join, err := MeasureDM(src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	return join, bruteMeasureDM(src, tgt)
}

// TestPolygonMeasureDMJoinEquivalence compares the dual-tree +
// prepared-kernel path against the brute pairing on non-convex layers, and
// checks that repeated runs are bit-identical (determinism under the
// parallel join).
func TestPolygonMeasureDMJoinEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	src, err := NewPolygonSystem(jaggedLayer(rng, 9, 100, 14), nil)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := NewPolygonSystem(jaggedLayer(rng, 4, 100, 18), nil)
	if err != nil {
		t.Fatal(err)
	}
	join, brute := measureBoth(t, src, tgt)
	csrsEqual(t, join, brute, "polygon join vs brute", 1e-9)
	if join.NNZ() == 0 {
		t.Fatal("no overlaps found — test layers do not exercise the kernel")
	}
	again, err := MeasureDM(src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	csrsEqual(t, join, again, "polygon determinism", 0)
}

// TestMultiMeasureDMJoinEquivalence does the same for multipolygon
// systems (two-part units).
func TestMultiMeasureDMJoinEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	makeSystem := func(g int, verts int) *PolygonSystem {
		parts := jaggedLayer(rng, g, 100, verts)
		units := make([]geom.MultiPolygon, 0, len(parts)/2)
		for i := 0; i+1 < len(parts); i += 2 {
			units = append(units, geom.MultiPolygon{parts[i], parts[i+1]})
		}
		s, err := NewMultiPolygonSystem(units, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	src := makeSystem(8, 12)
	tgt := makeSystem(4, 16)
	join, brute := measureBoth(t, src, tgt)
	csrsEqual(t, join, brute, "multi join vs brute", 1e-9)
	if join.NNZ() == 0 {
		t.Fatal("no overlaps found")
	}
}

// TestHoledMeasureDMJoinEquivalence does the same for holed systems
// (every unit carries one hole).
func TestHoledMeasureDMJoinEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	makeSystem := func(g, verts int) *PolygonSystem {
		outers := jaggedLayer(rng, g, 100, verts)
		units := make([]geom.HoledPolygon, len(outers))
		for i, o := range outers {
			c := o.Centroid()
			hole := geom.RegularPolygon(c, 100/float64(g)*0.08, 6, 0.1)
			units[i] = geom.HoledPolygon{Outer: o, Holes: []geom.Polygon{hole}}
		}
		s, err := NewHoledPolygonSystem(units, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	src := makeSystem(7, 12)
	tgt := makeSystem(3, 16)
	join, brute := measureBoth(t, src, tgt)
	csrsEqual(t, join, brute, "holed join vs brute", 1e-9)
	if join.NNZ() == 0 {
		t.Fatal("no overlaps found")
	}
}

// TestMixedMeasureDMJoinEquivalence covers a polygon layer against a
// holed layer under the join.
func TestMixedMeasureDMJoinEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	poly, err := NewPolygonSystem(jaggedLayer(rng, 6, 100, 10), nil)
	if err != nil {
		t.Fatal(err)
	}
	holedUnits := make([]geom.HoledPolygon, 0, 9)
	for _, o := range jaggedLayer(rng, 3, 100, 14) {
		holedUnits = append(holedUnits, geom.Solid(o))
	}
	holed, err := NewHoledPolygonSystem(holedUnits, nil)
	if err != nil {
		t.Fatal(err)
	}
	join, brute := measureBoth(t, poly, holed)
	csrsEqual(t, join, brute, "mixed polygon→holed", 1e-9)
}

// TestPointDMParallelDeterminism checks that the chunk-sharded parallel
// PointDM is bit-identical to the serial path and to itself across
// worker counts, including the dropped-weight total.
func TestPointDMParallelDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	src, err := NewPolygonSystem(jaggedLayer(rng, 6, 100, 8), nil)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := NewPolygonSystem(jaggedLayer(rng, 3, 100, 8), nil)
	if err != nil {
		t.Fatal(err)
	}
	n := 3*pointChunk + 137 // several chunks plus a ragged tail
	pts := make([][]float64, n)
	weights := make([]float64, n)
	for i := range pts {
		// Spill outside the universe sometimes so dropped > 0.
		pts[i] = []float64{rng.Float64()*120 - 10, rng.Float64()*120 - 10}
		weights[i] = rng.Float64() * 3
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serialDM, serialDropped, err := PointDM(src, tgt, pts, weights)
	if err != nil {
		t.Fatal(err)
	}
	if serialDropped <= 0 {
		t.Fatal("expected some dropped weight")
	}
	for _, workers := range []int{2, 3, 8} {
		runtime.GOMAXPROCS(workers)
		dm, dropped, err := PointDM(src, tgt, pts, weights)
		if err != nil {
			t.Fatal(err)
		}
		if dropped != serialDropped {
			t.Fatalf("workers=%d: dropped %.17g vs serial %.17g", workers, dropped, serialDropped)
		}
		csrsEqual(t, dm, serialDM, "parallel PointDM", 0)
	}
}

// TestMeasureDMWorkerIndependence checks MeasureDM is worker-count
// independent.
func TestMeasureDMWorkerIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	src, err := NewPolygonSystem(jaggedLayer(rng, 7, 100, 12), nil)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := NewPolygonSystem(jaggedLayer(rng, 3, 100, 12), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	want, err := MeasureDM(src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5, 16} {
		runtime.GOMAXPROCS(workers)
		got, err := MeasureDM(src, tgt)
		if err != nil {
			t.Fatal(err)
		}
		csrsEqual(t, got, want, "MeasureDM worker independence", 0)
	}
}
