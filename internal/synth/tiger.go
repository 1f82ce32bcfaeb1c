package synth

import (
	"fmt"
	"math"

	"geoalign/internal/geom"
	"geoalign/internal/hashmix"
)

// TigerConfig sizes a streamed TIGER-like layer: a jittered lattice of
// irregular octagonal "tract" polygons covering Bounds. Unlike the
// Voronoi universes, the layer is never materialized — units are
// generated one at a time in row-major order, so 10⁵–10⁶-unit layers
// cost O(1) memory. All jitter is derived by hashing lattice
// coordinates with the seed, and jitter on a shared corner or edge is
// keyed on the corner/edge identity, so neighbouring cells agree on
// their common boundary: the emitted polygons partition Bounds exactly
// (shared edges, disjoint interiors) while every individual boundary is
// irregular.
type TigerConfig struct {
	Units  int       // approximate unit count; rounded to a cols×rows lattice
	Seed   int64     // generation seed; same seed ⇒ same layer
	Bounds geom.BBox // universe rectangle; zero value ⇒ 0..100 square
}

func (c TigerConfig) withTigerDefaults() TigerConfig {
	if c.Bounds.IsEmpty() || c.Bounds == (geom.BBox{}) {
		c.Bounds = geom.BBox{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	}
	if c.Units <= 0 {
		c.Units = 100
	}
	return c
}

// tigerGrid picks the lattice dimensions closest to cfg.Units while
// following the bounds aspect ratio.
func tigerGrid(cfg TigerConfig) (cols, rows int) {
	w := cfg.Bounds.MaxX - cfg.Bounds.MinX
	h := cfg.Bounds.MaxY - cfg.Bounds.MinY
	aspect := 1.0
	if w > 0 && h > 0 {
		aspect = w / h
	}
	cols = int(math.Round(math.Sqrt(float64(cfg.Units) * aspect)))
	if cols < 1 {
		cols = 1
	}
	rows = (cfg.Units + cols - 1) / cols
	if rows < 1 {
		rows = 1
	}
	return cols, rows
}

// latticeHash folds the seed and up to three lattice coordinates into a
// jitter value in [-1, 1).
func latticeHash(seed int64, kind uint64, a, b int) float64 {
	h := hashmix.SplitMix64(uint64(seed))
	h = hashmix.SplitMix64(h ^ kind<<56 ^ uint64(uint32(a)))
	h = hashmix.SplitMix64(h ^ uint64(uint32(b)))
	return float64(h>>11)/float64(1<<53)*2 - 1
}

// Jitter amplitudes as fractions of the cell size. Corners stay within
// ±0.22 of their lattice position and edge midpoints bow ±0.15
// perpendicular to the edge — small enough that every octagon stays
// simple (each vertex keeps a distinct angular sector around the cell
// centre), large enough that no edge is axis-aligned.
const (
	tigerCornerJitter = 0.22
	tigerEdgeJitter   = 0.15
)

// TigerLayer streams the layer: emit is called once per unit, in
// row-major lattice order, with the unit index, a GEOID-like name, and
// a freshly allocated single-part polygon the callee owns. Returning an
// error from emit aborts the generation and returns that error.
//
// Calling TigerLayer twice with the same config yields the identical
// sequence, which is what makes it usable as a partition.TileStream
// source (sizing pass + bucketing pass).
func TigerLayer(cfg TigerConfig, emit func(i int, name string, parts geom.MultiPolygon) error) error {
	cfg = cfg.withTigerDefaults()
	cols, rows := tigerGrid(cfg)
	cellW := (cfg.Bounds.MaxX - cfg.Bounds.MinX) / float64(cols)
	cellH := (cfg.Bounds.MaxY - cfg.Bounds.MinY) / float64(rows)
	if cellW <= 0 || cellH <= 0 {
		return fmt.Errorf("synth: degenerate tiger bounds %+v", cfg.Bounds)
	}

	// corner returns the jittered position of lattice corner (cx, cy).
	// Boundary corners are pinned to the bounds so the union is exactly
	// the configured rectangle.
	corner := func(cx, cy int) geom.Point {
		p := geom.Point{
			X: cfg.Bounds.MinX + float64(cx)*cellW,
			Y: cfg.Bounds.MinY + float64(cy)*cellH,
		}
		if cx > 0 && cx < cols {
			p.X += tigerCornerJitter * cellW * latticeHash(cfg.Seed, 'x', cx, cy)
		}
		if cy > 0 && cy < rows {
			p.Y += tigerCornerJitter * cellH * latticeHash(cfg.Seed, 'y', cx, cy)
		}
		return p
	}
	// hMid / vMid return the bowed midpoint of the horizontal edge
	// below lattice row ey (between corners (ex,ey) and (ex+1,ey)) and
	// of the vertical edge left of column ex. Interior edges bow
	// perpendicular; boundary edges stay straight.
	hMid := func(ex, ey int) geom.Point {
		a, b := corner(ex, ey), corner(ex+1, ey)
		p := geom.Point{X: (a.X + b.X) / 2, Y: (a.Y + b.Y) / 2}
		if ey > 0 && ey < rows {
			p.Y += tigerEdgeJitter * cellH * latticeHash(cfg.Seed, 'h', ex, ey)
		}
		return p
	}
	vMid := func(ex, ey int) geom.Point {
		a, b := corner(ex, ey), corner(ex, ey+1)
		p := geom.Point{X: (a.X + b.X) / 2, Y: (a.Y + b.Y) / 2}
		if ex > 0 && ex < cols {
			p.X += tigerEdgeJitter * cellW * latticeHash(cfg.Seed, 'v', ex, ey)
		}
		return p
	}

	i := 0
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			// CCW octagon: corners interleaved with edge midpoints.
			pg := geom.Polygon{
				corner(c, r), hMid(c, r), corner(c+1, r), vMid(c+1, r),
				corner(c+1, r+1), hMid(c, r+1), corner(c, r+1), vMid(c, r),
			}
			name := fmt.Sprintf("T%08d", i)
			if err := emit(i, name, geom.MultiPolygon{pg}); err != nil {
				return err
			}
			i++
		}
	}
	return nil
}
