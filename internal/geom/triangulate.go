package geom

import (
	"errors"
	"math"
)

// ErrTriangulation is returned when ear clipping cannot make progress,
// which indicates a self-intersecting or otherwise invalid input ring.
var ErrTriangulation = errors.New("geom: triangulation failed (polygon may self-intersect)")

// Triangulate decomposes a simple polygon into triangles by ear
// clipping. The input may be CW or CCW. Each returned triangle is CCW.
// The triangles partition the polygon: their areas sum to the polygon
// area exactly (up to floating-point rounding). It is appendTriangles
// with fresh buffers, each triangle a 3-vertex view of one array.
func Triangulate(pg Polygon) ([]Polygon, error) {
	var flat []Point
	if len(pg) >= 3 {
		flat = make([]Point, 0, 3*(len(pg)-2))
	}
	flat, _, err := appendTriangles(flat, nil, pg)
	if err != nil || len(flat) == 0 {
		return nil, err
	}
	tris := make([]Polygon, len(flat)/3)
	for k := range tris {
		tris[k] = Polygon(flat[3*k : 3*k+3 : 3*k+3])
	}
	return tris, nil
}

// appendTriangles is the ear-clipping routine behind Triangulate,
// writing into caller-owned buffers: it appends each triangle's three
// CCW vertices to dst, in Triangulate's order, and uses work (grown as
// needed) for the shrinking ring. It returns the extended dst and the
// work buffer to pass to the next call; on error dst keeps whatever
// triangles were appended before ear clipping got stuck.
func appendTriangles(dst, work []Point, pg Polygon) ([]Point, []Point, error) {
	if len(pg) < 3 {
		return dst, work, ErrDegeneratePolygon
	}
	work = Polygon(append(work[:0], pg...)).EnsureCCW()
	ring := work
	guard := 0
	for len(ring) > 3 {
		n := len(ring)
		clipped := false
		for i := 0; i < n; i++ {
			prev := ring[(i-1+n)%n]
			cur := ring[i]
			next := ring[(i+1)%n]
			if Orient(prev, cur, next) <= 0 {
				continue // reflex or degenerate corner: not an ear
			}
			if containsOtherVertex(ring, prev, cur, next, i) {
				continue
			}
			dst = append(dst, prev, cur, next)
			ring = append(ring[:i], ring[i+1:]...)
			clipped = true
			break
		}
		if !clipped {
			// No ear found: try dropping an exactly-collinear vertex
			// (zero-area corner) before giving up.
			dropped := false
			for i := 0; i < len(ring); i++ {
				m := len(ring)
				if Orient(ring[(i-1+m)%m], ring[i], ring[(i+1)%m]) == 0 {
					ring = append(ring[:i], ring[i+1:]...)
					dropped = true
					break
				}
			}
			if !dropped {
				return dst, work, ErrTriangulation
			}
			if len(ring) < 3 {
				break
			}
		}
		guard++
		if guard > 4*n+len(pg)*4+16 {
			return dst, work, ErrTriangulation
		}
	}
	if len(ring) == 3 && Orient(ring[0], ring[1], ring[2]) != 0 {
		dst = append(dst, ring[0], ring[1], ring[2])
	}
	return dst, work, nil
}

// containsOtherVertex reports whether any polygon vertex other than the
// ear corners lies inside (or on) the candidate ear triangle.
func containsOtherVertex(pg []Point, a, b, c Point, earIdx int) bool {
	n := len(pg)
	for j := 0; j < n; j++ {
		if j == earIdx || j == (earIdx-1+n)%n || j == (earIdx+1)%n {
			continue
		}
		if pointInTriangle(pg[j], a, b, c) {
			return true
		}
	}
	return false
}

// pointInTriangle reports whether p lies in the CCW triangle abc,
// counting boundary points as inside except exact coincidence with the
// triangle's vertices.
func pointInTriangle(p, a, b, c Point) bool {
	if p == a || p == b || p == c {
		return false
	}
	eps := -1e-12 * (math.Abs(a.X) + math.Abs(b.X) + math.Abs(c.X) + 1)
	return Orient(a, b, p) >= eps && Orient(b, c, p) >= eps && Orient(c, a, p) >= eps
}
