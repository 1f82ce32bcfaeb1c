package geom

import (
	"errors"
	"fmt"
	"math"
)

// Polygon is a simple polygon represented as a ring of vertices without
// a repeated closing vertex. A polygon with positive Area is oriented
// counter-clockwise.
type Polygon []Point

// ErrDegeneratePolygon is returned when a polygon has fewer than three
// vertices or zero area.
var ErrDegeneratePolygon = errors.New("geom: degenerate polygon")

// SignedArea returns the shoelace signed area: positive for CCW rings.
func (pg Polygon) SignedArea() float64 {
	n := len(pg)
	if n < 3 {
		return 0
	}
	var s float64
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		s += pg[i].Cross(pg[j])
	}
	return s / 2
}

// Area returns the absolute area.
func (pg Polygon) Area() float64 { return math.Abs(pg.SignedArea()) }

// Centroid returns the area centroid. For degenerate polygons it falls
// back to the vertex mean.
func (pg Polygon) Centroid() Point {
	n := len(pg)
	if n == 0 {
		return Point{}
	}
	a := pg.SignedArea()
	if a == 0 {
		var c Point
		for _, p := range pg {
			c = c.Add(p)
		}
		return c.Scale(1 / float64(n))
	}
	var cx, cy float64
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		w := pg[i].Cross(pg[j])
		cx += (pg[i].X + pg[j].X) * w
		cy += (pg[i].Y + pg[j].Y) * w
	}
	f := 1 / (6 * a)
	return Point{cx * f, cy * f}
}

// BBox returns the bounding box of the polygon.
func (pg Polygon) BBox() BBox {
	b := EmptyBBox()
	for _, p := range pg {
		b = b.ExtendPoint(p)
	}
	return b
}

// NonFinite returns the index of the first vertex with a NaN or
// infinite coordinate, or -1 when every vertex is finite. (x-x is 0
// for every finite x and NaN for NaN and ±Inf.)
func (pg Polygon) NonFinite() int {
	for i, p := range pg {
		if p.X-p.X != 0 || p.Y-p.Y != 0 {
			return i
		}
	}
	return -1
}

// Clone returns a deep copy.
func (pg Polygon) Clone() Polygon {
	return append(Polygon(nil), pg...)
}

// Reverse flips the orientation in place and returns pg.
func (pg Polygon) Reverse() Polygon {
	for i, j := 0, len(pg)-1; i < j; i, j = i+1, j-1 {
		pg[i], pg[j] = pg[j], pg[i]
	}
	return pg
}

// EnsureCCW returns pg oriented counter-clockwise (possibly reversed in
// place).
func (pg Polygon) EnsureCCW() Polygon {
	if pg.SignedArea() < 0 {
		return pg.Reverse()
	}
	return pg
}

// Contains reports whether p is strictly inside or on the boundary of
// the polygon, using the even-odd ray-crossing rule with an explicit
// boundary check.
func (pg Polygon) Contains(p Point) bool {
	n := len(pg)
	if n < 3 {
		return false
	}
	inside := false
	for i := 0; i < n; i++ {
		a, b := pg[i], pg[(i+1)%n]
		if onSegment(p, a, b) {
			return true
		}
		if (a.Y > p.Y) != (b.Y > p.Y) {
			xCross := a.X + (p.Y-a.Y)/(b.Y-a.Y)*(b.X-a.X)
			if p.X < xCross {
				inside = !inside
			}
		}
	}
	return inside
}

func onSegment(p, a, b Point) bool {
	const eps = 1e-12
	if math.Abs(Orient(a, b, p)) > eps*(1+math.Abs(a.X)+math.Abs(b.X)+math.Abs(a.Y)+math.Abs(b.Y)) {
		return false
	}
	return p.X >= math.Min(a.X, b.X)-eps && p.X <= math.Max(a.X, b.X)+eps &&
		p.Y >= math.Min(a.Y, b.Y)-eps && p.Y <= math.Max(a.Y, b.Y)+eps
}

// IsConvex reports whether the polygon is convex (allowing collinear
// edges).
func (pg Polygon) IsConvex() bool {
	n := len(pg)
	if n < 3 {
		return false
	}
	sign := 0
	for i := 0; i < n; i++ {
		o := Orient(pg[i], pg[(i+1)%n], pg[(i+2)%n])
		if o == 0 {
			continue
		}
		s := 1
		if o < 0 {
			s = -1
		}
		if sign == 0 {
			sign = s
		} else if s != sign {
			return false
		}
	}
	return true
}

// Validate checks that the polygon is usable: at least three vertices,
// non-zero area, and no self-intersections (O(n²) segment check —
// polygons in this system are small).
func (pg Polygon) Validate() error {
	n := len(pg)
	if n < 3 {
		return fmt.Errorf("%w: %d vertices", ErrDegeneratePolygon, n)
	}
	if pg.Area() == 0 {
		return fmt.Errorf("%w: zero area", ErrDegeneratePolygon)
	}
	for i := 0; i < n; i++ {
		a1, a2 := pg[i], pg[(i+1)%n]
		for j := i + 1; j < n; j++ {
			// Skip adjacent edges (they share an endpoint by design).
			if j == i || (j+1)%n == i || (i+1)%n == j {
				continue
			}
			b1, b2 := pg[j], pg[(j+1)%n]
			if properCross(a1, a2, b1, b2) {
				return fmt.Errorf("geom: polygon self-intersects between edges %d and %d", i, j)
			}
		}
	}
	return nil
}

// properCross reports whether segments cross at an interior point of
// both.
func properCross(a1, a2, b1, b2 Point) bool {
	d1 := Orient(b1, b2, a1)
	d2 := Orient(b1, b2, a2)
	d3 := Orient(a1, a2, b1)
	d4 := Orient(a1, a2, b2)
	return ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0))
}

// Rect returns the CCW rectangle polygon for a bounding box.
func Rect(b BBox) Polygon {
	return Polygon{
		{b.MinX, b.MinY},
		{b.MaxX, b.MinY},
		{b.MaxX, b.MaxY},
		{b.MinX, b.MaxY},
	}
}

// RegularPolygon returns a CCW regular n-gon centred at c with
// circumradius r, starting at angle phase.
func RegularPolygon(c Point, r float64, n int, phase float64) Polygon {
	if n < 3 {
		panic("geom: RegularPolygon needs n >= 3")
	}
	pg := make(Polygon, n)
	for i := 0; i < n; i++ {
		a := phase + 2*math.Pi*float64(i)/float64(n)
		pg[i] = Point{c.X + r*math.Cos(a), c.Y + r*math.Sin(a)}
	}
	return pg
}
