package partition_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"geoalign/internal/geom"
	"geoalign/internal/partition"
	"geoalign/internal/sparse"
	"geoalign/internal/synth"
	"geoalign/internal/voronoi"
)

// csrBits hashes a CSR's shape, IndPtr, ColIdx and Val bit patterns.
func csrBits(m *sparse.CSR) string {
	h := sha256.New()
	var w [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(w[:], u)
		h.Write(w[:])
	}
	put(uint64(m.Rows))
	put(uint64(m.Cols))
	for _, p := range m.IndPtr {
		put(uint64(p))
	}
	for _, c := range m.ColIdx {
		put(uint64(c))
	}
	for _, v := range m.Val {
		put(math.Float64bits(v))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func tigerUnits(t *testing.T, units int, seed int64) []geom.MultiPolygon {
	t.Helper()
	var out []geom.MultiPolygon
	err := synth.TigerLayer(synth.TigerConfig{Units: units, Seed: seed}, func(_ int, _ string, parts geom.MultiPolygon) error {
		out = append(out, parts)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTiledMeasureDMBitsPinned pins the exact crosswalk bits of two
// layer pairs — the multi-part jagged fixture, at a size where some
// unit pairs sum three part pairs whose total depends on the order the
// join visits them, and a seed-fixed TIGER lattice pair — over explicit
// and budget-sized grids, one and four workers, without spilling,
// with some spilling, and with a budget so small that every record
// spills every resident bucket (so each bucket refills a reused buffer
// after every spill). A change to the reference-point rule, the
// tile-order merge, the join's visiting order, the bucket codec or
// chooseGrid's choice shows up as a different hash or grid. A 1×1 grid
// visits the part pairs in MeasureDM's order, so every 1×1 arm must
// hash equal to MeasureDM of the same layers.
func TestTiledMeasureDMBitsPinned(t *testing.T) {
	jagSrc, jagTgt := partition.TiledTestLayers(t, 47, 20, 10)
	layers := []struct {
		name     string
		src, tgt []geom.MultiPolygon
	}{
		{"jagged-multipart", jagSrc, jagTgt},
		{"tiger", tigerUnits(t, 2000, 11), tigerUnits(t, 120, 12)},
	}
	// want[layer][grid] is the hash for that resolved tile grid;
	// autoGrid[layer][spill][workers] is the grid chooseGrid picks.
	// The TIGER units are single-part, so no unit pair sums more than
	// one part pair and every grid gives the same bits.
	want := map[string]map[string]string{
		"jagged-multipart": {
			"1x1": "da0459d3fcb3fe9e", "3x2": "da0459d3fcb3fe9e",
			"1x2": "da0459d3fcb3fe9e", "2x3": "da0459d3fcb3fe9e",
			"5x6": "da0459d3fcb3fe9e",
		},
		"tiger": {
			"1x1": "c5632eb040117e42", "3x2": "c5632eb040117e42",
			"1x2": "c5632eb040117e42", "2x3": "c5632eb040117e42",
			"8x9": "c5632eb040117e42",
		},
	}
	autoGrid := map[string]map[string]map[int]string{
		"jagged-multipart": {"none": {1: "1x2", 4: "2x3"}, "some": {1: "5x6", 4: "5x6"}, "every": {1: "5x6", 4: "5x6"}},
		"tiger":            {"none": {1: "1x2", 4: "2x3"}, "some": {1: "8x9", 4: "8x9"}, "every": {1: "8x9", 4: "8x9"}},
	}
	// spilled[layer][spill][grid] is TiledStats.SpilledBytes: the spill
	// schedule depends only on bucket lengths, never on how the bucket
	// buffers are allocated or reused.
	spilled := map[string]map[string]map[string]int64{
		"jagged-multipart": {
			"some":  {"1x1": 101120, "3x2": 125536, "5x6": 174032},
			"every": {"1x1": 106400, "3x2": 128704, "5x6": 182216},
		},
		"tiger": {
			"some":  {"1x1": 290360, "3x2": 313344, "8x9": 457368},
			"every": {"1x1": 291856, "3x2": 321232, "8x9": 464848},
		},
	}
	for _, l := range layers {
		raw := partition.RawBytes(t, l.src, l.tgt)
		srcSys, err := partition.NewMultiPolygonSystem(l.src, nil)
		if err != nil {
			t.Fatal(err)
		}
		tgtSys, err := partition.NewMultiPolygonSystem(l.tgt, nil)
		if err != nil {
			t.Fatal(err)
		}
		inMemory, err := partition.MeasureDM(srcSys, tgtSys)
		if err != nil {
			t.Fatal(err)
		}
		inMemoryBits := csrBits(inMemory)
		for _, grid := range []string{"1x1", "3x2", "auto"} {
			for _, workers := range []int{1, 4} {
				for _, spill := range []string{"none", "some", "every"} {
					name := fmt.Sprintf("%s/%s/workers=%d/spill=%v", l.name, grid, workers, spill)
					opt := partition.TiledOptions{Workers: workers, SpillDir: t.TempDir()}
					switch grid {
					case "1x1":
						opt.TileCols, opt.TileRows = 1, 1
					case "3x2":
						opt.TileCols, opt.TileRows = 3, 2
					}
					switch {
					case spill == "some":
						opt.MemBudget = 16 << 10
					case spill == "every":
						// A 1-byte spill threshold: every record spills
						// every non-empty bucket.
						opt.MemBudget = 2
					case grid == "auto":
						// Four times the geometry estimate: chooseGrid
						// still splits the layers (per-tile share is
						// raw/workers), but resident buckets never pass
						// the half-budget spill threshold.
						opt.MemBudget = 4 * raw
					}
					got, stats, err := partition.TiledMeasureDM(partition.SliceStream(l.src), partition.SliceStream(l.tgt), opt)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					dims := fmt.Sprintf("%dx%d", stats.TileCols, stats.TileRows)
					if w := spilled[l.name][spill][dims]; stats.SpilledBytes != w {
						t.Errorf("%s: spilled %d bytes, pinned %d", name, stats.SpilledBytes, w)
					}
					if w := autoGrid[l.name][spill][workers]; grid == "auto" && dims != w {
						t.Errorf("%s: chooseGrid resolved %s, pinned %s", name, dims, w)
					}
					h := csrBits(got)
					if w, ok := want[l.name][dims]; !ok {
						t.Errorf("%s: no pinned hash for grid %s (got %s)", name, dims, h)
					} else if h != w {
						t.Errorf("%s: grid %s crosswalk bits %s, pinned %s", name, dims, h, w)
					}
					if dims == "1x1" && h != inMemoryBits {
						t.Errorf("%s: 1x1 crosswalk bits %s, MeasureDM %s", name, h, inMemoryBits)
					}
				}
			}
		}
	}
}

// enclaveLayer is a g×g grid of square counties over [0,span]², each
// with a regular-polygon hole that an enclave unit (a city) fills: a
// true partition in which every hole boundary is an edge the county
// shares with its city.
func enclaveLayer(g int, span float64, holeVerts int, phase float64) []geom.HoledPolygon {
	cell := span / float64(g)
	var out []geom.HoledPolygon
	for r := 0; r < g; r++ {
		for c := 0; c < g; c++ {
			box := geom.BBox{MinX: float64(c) * cell, MinY: float64(r) * cell, MaxX: float64(c+1) * cell, MaxY: float64(r+1) * cell}
			hole := geom.RegularPolygon(box.Center(), cell*0.2, holeVerts, phase)
			out = append(out,
				geom.HoledPolygon{Outer: geom.Rect(box), Holes: []geom.Polygon{hole}},
				geom.Solid(hole.Clone()))
		}
	}
	return out
}

// holedJaggedLayer gives every non-convex jagged cell a hexagonal hole
// at its centroid (no enclaves: the hole is uncovered).
func holedJaggedLayer(rng *rand.Rand, g, verts int) []geom.HoledPolygon {
	outers := partition.JaggedLayer(rng, g, 100, verts)
	out := make([]geom.HoledPolygon, len(outers))
	for i, o := range outers {
		hole := geom.RegularPolygon(o.Centroid(), 100/float64(g)*0.08, 6, 0.1)
		out[i] = geom.HoledPolygon{Outer: o, Holes: []geom.Polygon{hole}}
	}
	return out
}

// locateLattice is the point set a Locate pin walks: a regular lattice
// over [-5,105]² (it reaches past the universe, and its step puts
// points on every grid-aligned shared edge), plus every vertex and
// edge midpoint of the given rings — outer rings and hole boundaries,
// i.e. points on the edges two units share.
func locateLattice(rings []geom.Polygon) [][]float64 {
	var pts [][]float64
	for x := -5.0; x <= 105; x += 2.5 {
		for y := -5.0; y <= 105; y += 2.5 {
			pts = append(pts, []float64{x, y})
		}
	}
	for _, r := range rings {
		for i, a := range r {
			b := r[(i+1)%len(r)]
			pts = append(pts, []float64{a.X, a.Y}, []float64{(a.X + b.X) / 2, (a.Y + b.Y) / 2})
		}
	}
	return pts
}

// locateBits hashes Locate's answer at every point.
func locateBits(s partition.System, pts [][]float64) string {
	h := sha256.New()
	var w [8]byte
	for _, p := range pts {
		binary.LittleEndian.PutUint64(w[:], uint64(int64(s.Locate(p))))
		h.Write(w[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// TestInMemoryMeasureDMBitsPinned pins the exact bits of the in-memory
// MeasureDM on single-part, multi-part and holed layers, on the mixed
// pairs of those kinds, and of Locate over a lattice that includes
// shared edges and hole boundaries. The constants were recorded when
// each kind still had its own system type and measure path; folding
// them into one path must not move a bit.
func TestInMemoryMeasureDMBitsPinned(t *testing.T) {
	poly := func(units []geom.Polygon) partition.System {
		s, err := partition.NewPolygonSystem(units, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	multi := func(units []geom.MultiPolygon) partition.System {
		s, err := partition.NewMultiPolygonSystem(units, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	holed := func(units []geom.HoledPolygon) partition.System {
		s, err := partition.NewHoledPolygonSystem(units, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	bounds := geom.BBox{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	vrng := rand.New(rand.NewSource(5))
	voronoiCells := func(n int) []geom.Polygon {
		d, err := voronoi.Compute(voronoi.RandomSeeds(vrng, n, bounds), bounds)
		if err != nil {
			t.Fatal(err)
		}
		return d.Cells
	}
	vorSrc, vorTgt := voronoiCells(60), voronoiCells(12)
	jrng := rand.New(rand.NewSource(21))
	jagSrc, jagTgt := partition.JaggedLayer(jrng, 9, 100, 14), partition.JaggedLayer(jrng, 4, 100, 18)
	mpSrc, mpTgt := partition.TiledTestLayers(t, 47, 20, 10)
	tigSrc, tigTgt := tigerUnits(t, 2000, 11), tigerUnits(t, 120, 12)
	encSrc, encTgt := enclaveLayer(5, 100, 6, 0.3), enclaveLayer(3, 100, 9, 0)
	hrng := rand.New(rand.NewSource(25))
	hjSrc, hjTgt := holedJaggedLayer(hrng, 7, 12), holedJaggedLayer(hrng, 3, 16)
	// A clockwise copy of the Voronoi source: Locate must not depend on
	// the orientation the caller hands in.
	vorCW := make([]geom.Polygon, len(vorSrc))
	for i, pg := range vorSrc {
		vorCW[i] = pg.Clone().Reverse()
	}

	measures := []struct {
		name, want string
		src, tgt   partition.System
	}{
		{"poly/convex-voronoi", "93c8d1eeb0aafe0d", poly(vorSrc), poly(vorTgt)},
		{"poly/nonconvex-jagged", "35f1dd5df3b0709a", poly(jagSrc), poly(jagTgt)},
		{"multi/tiger", "c5632eb040117e42", multi(tigSrc), multi(tigTgt)},
		{"multi/jagged-multipart", "da0459d3fcb3fe9e", multi(mpSrc), multi(mpTgt)},
		{"holed/enclaves", "8cfa5b1e6833e954", holed(encSrc), holed(encTgt)},
		{"holed/jagged", "437881f69c3a75dd", holed(hjSrc), holed(hjTgt)},
		{"poly→multi", "8e6558cdc9830f13", poly(jagSrc), multi(mpTgt)},
		{"multi→poly", "cceb47a54369e6bb", multi(mpSrc), poly(jagTgt)},
		{"poly→holed", "6f3cf5271a1dafa6", poly(vorSrc), holed(encTgt)},
		{"holed→poly", "ba256260af81ff19", holed(encSrc), poly(vorTgt)},
	}
	for _, m := range measures {
		dm, err := partition.MeasureDM(m.src, m.tgt)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if got := csrBits(dm); got != m.want {
			t.Errorf("%s: MeasureDM bits %s, pinned %s", m.name, got, m.want)
		}
	}

	rings := func(units []geom.HoledPolygon) []geom.Polygon {
		var out []geom.Polygon
		for _, u := range units {
			out = append(out, u.Outer)
			out = append(out, u.Holes...)
		}
		return out
	}
	var mpRings []geom.Polygon
	for _, u := range mpSrc {
		mpRings = append(mpRings, u...)
	}
	locates := []struct {
		name, want string
		sys        partition.System
		rings      []geom.Polygon
	}{
		{"poly/convex-voronoi", "b232514560212106", poly(vorSrc), vorSrc},
		{"poly/convex-voronoi-cw", "b232514560212106", poly(vorCW), vorSrc},
		{"poly/nonconvex-jagged", "02074f7b2312d1e4", poly(jagSrc), jagSrc},
		{"multi/jagged-multipart", "246b07534ca75929", multi(mpSrc), mpRings},
		{"holed/enclaves", "74eb857a6505a89e", holed(encSrc), rings(encSrc)},
		{"holed/jagged", "955561745b27eb85", holed(hjSrc), rings(hjSrc)},
	}
	for _, l := range locates {
		if got := locateBits(l.sys, locateLattice(l.rings)); got != l.want {
			t.Errorf("%s: Locate bits %s, pinned %s", l.name, got, l.want)
		}
	}
}
