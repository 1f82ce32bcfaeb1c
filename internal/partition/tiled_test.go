package partition

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"geoalign/internal/geom"
	"geoalign/internal/sparse"
)

// tiledTestLayers builds a multi-part source and target layer (the
// richest case: duplicate unit pairs from multiple part pairs) plus
// the in-memory systems MeasureDM needs for the baseline.
func tiledTestLayers(t *testing.T, seed int64, gSrc, gTgt int) (src, tgt []geom.MultiPolygon, srcSys, tgtSys *PolygonSystem) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	makeUnits := func(g, verts int) []geom.MultiPolygon {
		parts := jaggedLayer(rng, g, 100, verts)
		units := make([]geom.MultiPolygon, 0, len(parts)/2)
		for i := 0; i+1 < len(parts); i += 2 {
			units = append(units, geom.MultiPolygon{parts[i], parts[i+1]})
		}
		return units
	}
	src = makeUnits(gSrc, 12)
	tgt = makeUnits(gTgt, 16)
	var err error
	srcSys, err = NewMultiPolygonSystem(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	tgtSys, err = NewMultiPolygonSystem(tgt, nil)
	if err != nil {
		t.Fatal(err)
	}
	return src, tgt, srcSys, tgtSys
}

// TestTiledMeasureDMEquivalence checks the out-of-core build against the
// in-memory MeasureDM across tile grids {1×1, 2×2, 8×8} and worker
// counts {1, 4, 8}: identical sparsity pattern, values within 1e-9, and
// bit-identical values on the 1×1 grid, which visits the part pairs in
// MeasureDM's order.
func TestTiledMeasureDMEquivalence(t *testing.T) {
	src, tgt, srcSys, tgtSys := tiledTestLayers(t, 41, 10, 5)
	want, err := MeasureDM(srcSys, tgtSys)
	if err != nil {
		t.Fatal(err)
	}
	if want.NNZ() == 0 {
		t.Fatal("baseline has no overlaps — layers do not exercise the kernel")
	}
	for _, grid := range []int{1, 2, 8} {
		for _, workers := range []int{1, 4, 8} {
			name := fmt.Sprintf("tiles=%dx%d/workers=%d", grid, grid, workers)
			t.Run(name, func(t *testing.T) {
				got, stats, err := TiledMeasureDM(SliceStream(src), SliceStream(tgt), TiledOptions{
					TileCols: grid, TileRows: grid, Workers: workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				tol := 1e-9
				if grid == 1 {
					tol = 0
				}
				csrsEqual(t, got, want, name, tol)
				if stats.SourceRecords != len(src) || stats.TargetRecords != len(tgt) {
					t.Errorf("stats records %d/%d, want %d/%d",
						stats.SourceRecords, stats.TargetRecords, len(src), len(tgt))
				}
				if stats.SpilledBytes != 0 {
					t.Errorf("unexpected spill of %d bytes with no budget", stats.SpilledBytes)
				}
			})
		}
	}
}

// TestTiledMeasureDMWorkerDeterminism pins the stronger guarantee: for a
// fixed tile grid the output is bit-identical across worker counts.
func TestTiledMeasureDMWorkerDeterminism(t *testing.T) {
	src, tgt, _, _ := tiledTestLayers(t, 43, 8, 4)
	var base *sparse.CSR
	for _, workers := range []int{1, 4, 8} {
		got, _, err := TiledMeasureDM(SliceStream(src), SliceStream(tgt), TiledOptions{
			TileCols: 4, TileRows: 4, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = got
			continue
		}
		csrsEqual(t, got, base, fmt.Sprintf("workers=%d vs 1", workers), 0)
	}
}

// TestTiledMeasureDMSpill forces bucket spilling with a tiny memory
// budget and checks the result is bit-identical to the unspilled build
// on the same grid (and still ≤1e-9 from the in-memory baseline).
func TestTiledMeasureDMSpill(t *testing.T) {
	src, tgt, srcSys, tgtSys := tiledTestLayers(t, 47, 9, 4)
	want, err := MeasureDM(srcSys, tgtSys)
	if err != nil {
		t.Fatal(err)
	}
	noSpill, _, err := TiledMeasureDM(SliceStream(src), SliceStream(tgt), TiledOptions{
		TileCols: 4, TileRows: 4, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	spilled, stats, err := TiledMeasureDM(SliceStream(src), SliceStream(tgt), TiledOptions{
		TileCols: 4, TileRows: 4, Workers: 4,
		MemBudget: 8 << 10, // 8 KiB: far below the layer size, must spill
		SpillDir:  t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SpilledBytes == 0 {
		t.Fatal("8 KiB budget did not trigger spilling")
	}
	csrsEqual(t, spilled, noSpill, "spill vs in-memory buckets", 0)
	csrsEqual(t, spilled, want, "spill vs MeasureDM", 1e-9)
	if stats.PeakBucketBytes == 0 {
		t.Error("PeakBucketBytes not reported")
	}
}

// TestTiledMeasureDMAutoGrid exercises budget-driven grid sizing (no
// explicit TileCols/TileRows) and progress logging.
func TestTiledMeasureDMAutoGrid(t *testing.T) {
	src, tgt, srcSys, tgtSys := tiledTestLayers(t, 53, 8, 3)
	want, err := MeasureDM(srcSys, tgtSys)
	if err != nil {
		t.Fatal(err)
	}
	logged := 0
	got, stats, err := TiledMeasureDM(SliceStream(src), SliceStream(tgt), TiledOptions{
		MemBudget: 64 << 10,
		Workers:   2,
		SpillDir:  t.TempDir(),
		Logf:      func(string, ...any) { logged++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TileCols < 1 || stats.TileRows < 1 {
		t.Fatalf("auto grid %dx%d", stats.TileCols, stats.TileRows)
	}
	if stats.TileCols*stats.TileRows < 2 {
		t.Errorf("64 KiB budget produced a single tile (%dx%d)", stats.TileCols, stats.TileRows)
	}
	if logged == 0 {
		t.Error("Logf never called")
	}
	csrsEqual(t, got, want, "auto grid vs MeasureDM", 1e-9)
}

// TestTiledMeasureDMPassTimes checks the per-pass wall times: on a
// build that spills and joins several tiles each pass takes time, and
// the passes, run one after another inside the call, add up to no more
// than the call's own wall time.
func TestTiledMeasureDMPassTimes(t *testing.T) {
	src, tgt, _, _ := tiledTestLayers(t, 61, 10, 5)
	start := time.Now()
	_, stats, err := TiledMeasureDM(SliceStream(src), SliceStream(tgt), TiledOptions{
		TileCols: 3, TileRows: 3, Workers: 2, MemBudget: 16 << 10, SpillDir: t.TempDir(),
	})
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SpilledBytes == 0 || stats.PairsEvaluated == 0 {
		t.Fatalf("build spilled %d bytes and evaluated %d pairs; the fixture no longer exercises every pass", stats.SpilledBytes, stats.PairsEvaluated)
	}
	passes := []struct {
		name string
		d    time.Duration
	}{{"size", stats.SizeTime}, {"bucket", stats.BucketTime}, {"join", stats.JoinTime}, {"merge", stats.MergeTime}}
	var sum time.Duration
	for _, p := range passes {
		if p.d <= 0 {
			t.Errorf("%s pass took %v", p.name, p.d)
		}
		sum += p.d
	}
	if sum > wall {
		t.Errorf("passes add up to %v, the call took %v", sum, wall)
	}
}

// TestTiledMeasureDMSingleParts checks plain single-part layers (the
// PolygonSystem analogue) agree with MeasureDM too.
func TestTiledMeasureDMSingleParts(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	srcPolys := jaggedLayer(rng, 7, 100, 10)
	tgtPolys := jaggedLayer(rng, 3, 100, 14)
	toMulti := func(ps []geom.Polygon) []geom.MultiPolygon {
		out := make([]geom.MultiPolygon, len(ps))
		for i, p := range ps {
			out[i] = geom.MultiPolygon{p}
		}
		return out
	}
	srcSys, err := NewPolygonSystem(srcPolys, nil)
	if err != nil {
		t.Fatal(err)
	}
	tgtSys, err := NewPolygonSystem(tgtPolys, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MeasureDM(srcSys, tgtSys)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := TiledMeasureDM(SliceStream(toMulti(srcPolys)), SliceStream(toMulti(tgtPolys)), TiledOptions{
		TileCols: 3, TileRows: 3, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	csrsEqual(t, got, want, "single-part tiled vs MeasureDM", 1e-9)
}

// errStream yields k good records then fails.
type errStream struct {
	k    int
	fail error
}

func (s errStream) Scan(fn func(geom.MultiPolygon) error) error {
	for i := 0; i < s.k; i++ {
		x := float64(i)
		mp := geom.MultiPolygon{geom.Rect(geom.BBox{MinX: x, MinY: 0, MaxX: x + 1, MaxY: 1})}
		if err := fn(mp); err != nil {
			return err
		}
	}
	return s.fail
}

// shrinkingStream yields fewer records on each successive Scan,
// simulating a file mutated between passes.
type shrinkingStream struct{ n *int }

func (s shrinkingStream) Scan(fn func(geom.MultiPolygon) error) error {
	*s.n--
	for i := 0; i < *s.n; i++ {
		x := float64(i)
		mp := geom.MultiPolygon{geom.Rect(geom.BBox{MinX: x, MinY: 0, MaxX: x + 1, MaxY: 1})}
		if err := fn(mp); err != nil {
			return err
		}
	}
	return nil
}

func TestTiledMeasureDMValidation(t *testing.T) {
	ok := SliceStream{geom.MultiPolygon{geom.Rect(geom.BBox{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1})}}
	if _, _, err := TiledMeasureDM(SliceStream{}, ok, TiledOptions{}); err == nil {
		t.Error("empty source accepted")
	}
	if _, _, err := TiledMeasureDM(ok, SliceStream{geom.MultiPolygon{}}, TiledOptions{}); err == nil {
		t.Error("record with no parts accepted")
	}
	if _, _, err := TiledMeasureDM(ok, SliceStream{geom.MultiPolygon{geom.Polygon{{X: 0, Y: 0}, {X: 1, Y: 1}}}}, TiledOptions{}); err == nil {
		t.Error("degenerate part accepted")
	}
	streamErr := fmt.Errorf("disk on fire")
	if _, _, err := TiledMeasureDM(errStream{k: 2, fail: streamErr}, ok, TiledOptions{}); err == nil {
		t.Error("failing stream accepted")
	}
	n := 5
	if _, _, err := TiledMeasureDM(shrinkingStream{n: &n}, ok, TiledOptions{}); err == nil {
		t.Error("stream unstable across rescans accepted")
	}
}

// TestNonFiniteVerticesRejected checks every polygon boundary refuses a
// NaN or infinite vertex and names where it is. Unchecked, the tiled
// build dropped such a part without an error (a NaN x left one of three
// unit squares out of the crosswalk), and the in-memory systems built a
// NaN bounding box.
func TestNonFiniteVerticesRejected(t *testing.T) {
	square := func(x float64) geom.Polygon {
		return geom.Rect(geom.BBox{MinX: x, MinY: 0, MaxX: x + 1, MaxY: 1})
	}
	tgt := SliceStream{geom.MultiPolygon{geom.Rect(geom.BBox{MinX: 0, MinY: 0, MaxX: 3, MaxY: 1})}}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		broken := square(1)
		broken[2].X = bad
		src := SliceStream{{square(0)}, {square(2), broken}, {square(2)}}
		_, _, err := TiledMeasureDM(src, tgt, TiledOptions{Workers: 1})
		if err == nil || !strings.Contains(err.Error(), "record 1 part 1 vertex 2 is not finite") {
			t.Errorf("tiled source with %v vertex: err = %v", bad, err)
		}
		if _, _, err := TiledMeasureDM(tgt, src, TiledOptions{Workers: 1}); err == nil || !strings.Contains(err.Error(), "sizing target layer") {
			t.Errorf("tiled target with %v vertex: err = %v", bad, err)
		}

		if _, err := NewPolygonSystem([]geom.Polygon{square(0), broken}, nil); err == nil || !strings.Contains(err.Error(), "unit 1 vertex 2 is not finite") {
			t.Errorf("NewPolygonSystem with %v vertex: err = %v", bad, err)
		}
		if _, err := NewMultiPolygonSystem([]geom.MultiPolygon(src), nil); err == nil || !strings.Contains(err.Error(), "unit 1 part 1 vertex 2 is not finite") {
			t.Errorf("NewMultiPolygonSystem with %v vertex: err = %v", bad, err)
		}
		holed := []geom.HoledPolygon{geom.Solid(square(0)), {Outer: geom.Rect(geom.BBox{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4}), Holes: []geom.Polygon{broken}}}
		if _, err := NewHoledPolygonSystem(holed, nil); err == nil || !strings.Contains(err.Error(), "unit 1 hole 0 vertex 2 is not finite") {
			t.Errorf("NewHoledPolygonSystem with %v hole vertex: err = %v", bad, err)
		}
		holed[1] = geom.Solid(broken)
		if _, err := NewHoledPolygonSystem(holed, nil); err == nil || !strings.Contains(err.Error(), "unit 1 outer ring vertex 2 is not finite") {
			t.Errorf("NewHoledPolygonSystem with %v outer vertex: err = %v", bad, err)
		}
	}
}

// FuzzDecodeParts fuzzes the tile bucket codec. Whatever the bytes,
// decodeParts returns an error or parts that re-encode to exactly those
// bytes, each with the bounding box of its own vertices; it never
// panics or reads past the input, and cutting a valid bucket anywhere
// inside its last record is an error. The corpus is seeded with real
// buckets of the multi-part fixture.
func FuzzDecodeParts(f *testing.F) {
	rng := rand.New(rand.NewSource(41))
	bk := &bucketer{
		grid:    &tileGrid{tileW: 50, tileH: 50, cols: 2, rows: 2},
		chunk:   minChunk,
		buckets: [2][]tileBucket{make([]tileBucket, 4), make([]tileBucket, 4)},
	}
	for layer, g := range []int{6, 3} {
		parts := jaggedLayer(rng, g, 100, 12)
		units := make(SliceStream, 0, len(parts)/2)
		for i := 0; i+1 < len(parts); i += 2 {
			units = append(units, geom.MultiPolygon{parts[i], parts[i+1]})
		}
		if err := bk.bucketLayer(layer, units, len(units)); err != nil {
			f.Fatal(err)
		}
	}
	for layer := range bk.buckets {
		for _, b := range bk.buckets[layer] {
			f.Add(bytes.Join(b.chunks, nil))
		}
	}
	one := appendPart(nil, 7, geom.Rect(geom.BBox{MinX: -1, MinY: 2, MaxX: 3, MaxY: 4}))
	f.Add(one[:len(one)-3])
	f.Add([]byte{1, 0, 0, 0, 255, 255, 255, 255})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		parts, pts, err := decodeParts(raw, nil, make([]geom.Point, 0, len(raw)/16))
		if err != nil {
			return
		}
		var re []byte
		for _, p := range parts {
			if p.box != p.poly.BBox() {
				t.Fatalf("part of record %d: box %+v, vertices span %+v", p.rec, p.box, p.poly.BBox())
			}
			re = appendPart(re, p.rec, p.poly)
		}
		if string(re) != string(raw) {
			t.Fatalf("re-encoding %d parts (%d points) gave %d bytes, decoded %d", len(parts), len(pts), len(re), len(raw))
		}
		if len(raw) > 0 {
			if _, _, err := decodeParts(raw[:len(raw)-1], nil, nil); err == nil {
				t.Fatalf("bucket cut one byte short of %d decoded without error", len(raw))
			}
		}
	})
}
