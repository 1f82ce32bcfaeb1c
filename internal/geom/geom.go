// Package geom implements the 2-D computational geometry GeoAlign's
// areal-interpolation substrate needs: points, bounding boxes, simple
// polygons with signed areas and centroids, point-in-polygon tests,
// segment intersection, convex clipping (Sutherland–Hodgman),
// ear-clipping triangulation, and general polygon–polygon intersection
// area. The paper's evaluation pipeline uses ArcGIS Pro for exactly
// these operations (intersecting zip-code and county feature layers and
// aggregating point data into the intersections, §4.1); this package
// replaces that dependency.
//
// All polygons are simple (non-self-intersecting) rings. The exterior
// orientation convention is counter-clockwise: Polygon.Area is positive
// for CCW rings.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Add returns p + q componentwise.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q componentwise.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dot returns the dot product p·q.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z-component of the cross product p × q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Dist2 returns the squared Euclidean distance between p and q.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

func (p Point) String() string { return fmt.Sprintf("(%g,%g)", p.X, p.Y) }

// Orient returns twice the signed area of the triangle (a, b, c):
// positive when c lies to the left of the directed line a→b.
func Orient(a, b, c Point) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// BBox is an axis-aligned bounding box. The zero value is an "empty"
// box only by convention; use EmptyBBox for an identity under Union.
type BBox struct {
	MinX, MinY, MaxX, MaxY float64
}

// EmptyBBox returns the identity element for Union: a box that contains
// nothing.
func EmptyBBox() BBox {
	inf := math.Inf(1)
	return BBox{inf, inf, -inf, -inf}
}

// IsEmpty reports whether the box contains no points.
func (b BBox) IsEmpty() bool { return b.MinX > b.MaxX || b.MinY > b.MaxY }

// Union returns the smallest box containing both b and o. It compares
// plainly rather than calling math.Min/Max (which do not inline), so a
// NaN coordinate is skipped instead of propagated: boxes are only
// defined over finite coordinates, which the unit-system boundaries
// enforce (Polygon.NonFinite).
func (b BBox) Union(o BBox) BBox {
	if o.MinX < b.MinX {
		b.MinX = o.MinX
	}
	if o.MinY < b.MinY {
		b.MinY = o.MinY
	}
	if o.MaxX > b.MaxX {
		b.MaxX = o.MaxX
	}
	if o.MaxY > b.MaxY {
		b.MaxY = o.MaxY
	}
	return b
}

// ExtendPoint returns the smallest box containing b and p, comparing
// plainly as Union does.
func (b BBox) ExtendPoint(p Point) BBox {
	if p.X < b.MinX {
		b.MinX = p.X
	}
	if p.X > b.MaxX {
		b.MaxX = p.X
	}
	if p.Y < b.MinY {
		b.MinY = p.Y
	}
	if p.Y > b.MaxY {
		b.MaxY = p.Y
	}
	return b
}

// Intersects reports whether b and o share any point (boundaries count).
func (b BBox) Intersects(o BBox) bool {
	return b.MinX <= o.MaxX && o.MinX <= b.MaxX && b.MinY <= o.MaxY && o.MinY <= b.MaxY
}

// ContainsPoint reports whether p lies in b (boundaries count).
func (b BBox) ContainsPoint(p Point) bool {
	return p.X >= b.MinX && p.X <= b.MaxX && p.Y >= b.MinY && p.Y <= b.MaxY
}

// Area returns the area of the box (0 for empty boxes).
func (b BBox) Area() float64 {
	if b.IsEmpty() {
		return 0
	}
	return (b.MaxX - b.MinX) * (b.MaxY - b.MinY)
}

// Center returns the box midpoint.
func (b BBox) Center() Point { return Point{(b.MinX + b.MaxX) / 2, (b.MinY + b.MaxY) / 2} }

// Margin returns the half-perimeter, used by R-tree split heuristics.
func (b BBox) Margin() float64 {
	if b.IsEmpty() {
		return 0
	}
	return (b.MaxX - b.MinX) + (b.MaxY - b.MinY)
}

// Expand returns the box grown by d on every side.
func (b BBox) Expand(d float64) BBox {
	return BBox{b.MinX - d, b.MinY - d, b.MaxX + d, b.MaxY + d}
}

// SegmentIntersection computes the intersection of segments [a1,a2] and
// [b1,b2]. ok is false for parallel (including collinear) or
// non-crossing segments; proper crossings and endpoint touches with a
// unique intersection point report ok with the point.
func SegmentIntersection(a1, a2, b1, b2 Point) (Point, bool) {
	d1 := a2.Sub(a1)
	d2 := b2.Sub(b1)
	denom := d1.Cross(d2)
	if denom == 0 {
		return Point{}, false
	}
	w := b1.Sub(a1)
	t := w.Cross(d2) / denom
	u := w.Cross(d1) / denom
	const eps = 1e-12
	if t < -eps || t > 1+eps || u < -eps || u > 1+eps {
		return Point{}, false
	}
	return a1.Add(d1.Scale(t)), true
}
