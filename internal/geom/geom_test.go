package geom

import (
	"math"
	"testing"
)

func TestPointArithmetic(t *testing.T) {
	p, q := Point{1, 2}, Point{3, -4}
	if got := p.Add(q); got != (Point{4, -2}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point{-2, 6}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{2, 4}) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.Dot(q); got != 3-8 {
		t.Errorf("Dot = %v", got)
	}
	if got := p.Cross(q); got != -4-6 {
		t.Errorf("Cross = %v", got)
	}
	if got := p.Dist(Point{4, 6}); got != 5 {
		t.Errorf("Dist = %v", got)
	}
	if got := p.Dist2(Point{4, 6}); got != 25 {
		t.Errorf("Dist2 = %v", got)
	}
}

func TestOrient(t *testing.T) {
	a, b := Point{0, 0}, Point{1, 0}
	if Orient(a, b, Point{0, 1}) <= 0 {
		t.Error("left turn not positive")
	}
	if Orient(a, b, Point{0, -1}) >= 0 {
		t.Error("right turn not negative")
	}
	if Orient(a, b, Point{2, 0}) != 0 {
		t.Error("collinear not zero")
	}
}

func TestBBoxUnionIntersects(t *testing.T) {
	a := BBox{0, 0, 2, 2}
	b := BBox{1, 1, 3, 3}
	u := a.Union(b)
	if u != (BBox{0, 0, 3, 3}) {
		t.Errorf("Union = %v", u)
	}
	if !a.Intersects(b) {
		t.Error("overlapping boxes do not intersect")
	}
	c := BBox{5, 5, 6, 6}
	if a.Intersects(c) {
		t.Error("disjoint boxes intersect")
	}
	// Touching edges intersect.
	d := BBox{2, 0, 4, 2}
	if !a.Intersects(d) {
		t.Error("touching boxes do not intersect")
	}
}

func TestBBoxEmpty(t *testing.T) {
	e := EmptyBBox()
	if !e.IsEmpty() {
		t.Error("EmptyBBox not empty")
	}
	if e.Area() != 0 {
		t.Error("empty area != 0")
	}
	b := e.ExtendPoint(Point{1, 2})
	if b.IsEmpty() || b.MinX != 1 || b.MaxY != 2 {
		t.Errorf("ExtendPoint = %v", b)
	}
	u := e.Union(BBox{0, 0, 1, 1})
	if u != (BBox{0, 0, 1, 1}) {
		t.Errorf("Union with empty = %v", u)
	}
}

func TestBBoxPointAreaCenterMargin(t *testing.T) {
	b := BBox{0, 0, 4, 2}
	if !b.ContainsPoint(Point{0, 0}) || !b.ContainsPoint(Point{4, 2}) {
		t.Error("boundary points not contained")
	}
	if b.ContainsPoint(Point{5, 1}) {
		t.Error("outside point contained")
	}
	if b.Area() != 8 {
		t.Errorf("Area = %v", b.Area())
	}
	if b.Center() != (Point{2, 1}) {
		t.Errorf("Center = %v", b.Center())
	}
}

var unitSquare = Polygon{{0, 0}, {1, 0}, {1, 1}, {0, 1}}

func TestPolygonArea(t *testing.T) {
	if a := unitSquare.Area(); a != 1 {
		t.Errorf("unit square area = %v", a)
	}
	if sa := unitSquare.SignedArea(); sa != 1 {
		t.Errorf("CCW signed area = %v", sa)
	}
	cw := unitSquare.Clone().Reverse()
	if sa := cw.SignedArea(); sa != -1 {
		t.Errorf("CW signed area = %v", sa)
	}
	tri := Polygon{{0, 0}, {4, 0}, {0, 3}}
	if a := tri.Area(); a != 6 {
		t.Errorf("triangle area = %v", a)
	}
}

func TestCentroid(t *testing.T) {
	c := unitSquare.Centroid()
	if c.Dist(Point{0.5, 0.5}) > 1e-12 {
		t.Errorf("square centroid = %v", c)
	}
	tri := Polygon{{0, 0}, {3, 0}, {0, 3}}
	if tri.Centroid().Dist(Point{1, 1}) > 1e-12 {
		t.Errorf("triangle centroid = %v", tri.Centroid())
	}
}

func TestEnsureCCW(t *testing.T) {
	cw := Polygon{{0, 0}, {0, 1}, {1, 1}, {1, 0}}
	if cw.SignedArea() >= 0 {
		t.Fatal("test polygon should be CW")
	}
	ccw := cw.EnsureCCW()
	if ccw.SignedArea() <= 0 {
		t.Error("EnsureCCW did not flip")
	}
	again := ccw.EnsureCCW()
	if again.SignedArea() <= 0 {
		t.Error("EnsureCCW flipped a CCW polygon")
	}
}

func TestContains(t *testing.T) {
	if !unitSquare.Contains(Point{0.5, 0.5}) {
		t.Error("interior point not contained")
	}
	if unitSquare.Contains(Point{1.5, 0.5}) {
		t.Error("exterior point contained")
	}
	if !unitSquare.Contains(Point{0, 0.5}) {
		t.Error("boundary point not contained")
	}
	if !unitSquare.Contains(Point{0, 0}) {
		t.Error("vertex not contained")
	}
	// Concave polygon (L-shape).
	l := Polygon{{0, 0}, {2, 0}, {2, 1}, {1, 1}, {1, 2}, {0, 2}}
	if !l.Contains(Point{0.5, 1.5}) {
		t.Error("L interior not contained")
	}
	if l.Contains(Point{1.5, 1.5}) {
		t.Error("L notch contained")
	}
}

func TestIsConvex(t *testing.T) {
	if !unitSquare.IsConvex() {
		t.Error("square not convex")
	}
	l := Polygon{{0, 0}, {2, 0}, {2, 1}, {1, 1}, {1, 2}, {0, 2}}
	if l.IsConvex() {
		t.Error("L-shape reported convex")
	}
	// Collinear vertex does not break convexity.
	sq := Polygon{{0, 0}, {0.5, 0}, {1, 0}, {1, 1}, {0, 1}}
	if !sq.IsConvex() {
		t.Error("square with collinear vertex reported non-convex")
	}
}

func TestValidate(t *testing.T) {
	if err := unitSquare.Validate(); err != nil {
		t.Errorf("unit square invalid: %v", err)
	}
	if err := (Polygon{{0, 0}, {1, 1}}).Validate(); err == nil {
		t.Error("2-vertex polygon validated")
	}
	bow := Polygon{{0, 0}, {1, 1}, {1, 0}, {0, 1}}
	if err := bow.Validate(); err == nil {
		t.Error("self-intersecting bow-tie validated")
	}
}

func TestRect(t *testing.T) {
	r := Rect(BBox{1, 2, 4, 6})
	if r.Area() != 12 {
		t.Errorf("Rect area = %v", r.Area())
	}
	if r.SignedArea() <= 0 {
		t.Error("Rect not CCW")
	}
}

func TestRegularPolygon(t *testing.T) {
	hex := RegularPolygon(Point{0, 0}, 1, 6, 0)
	if len(hex) != 6 {
		t.Fatalf("len = %d", len(hex))
	}
	want := 3 * math.Sqrt(3) / 2 // area of unit hexagon
	if math.Abs(hex.Area()-want) > 1e-12 {
		t.Errorf("hexagon area = %v, want %v", hex.Area(), want)
	}
	if !hex.IsConvex() {
		t.Error("hexagon not convex")
	}
}
