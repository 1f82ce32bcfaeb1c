package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestClipConvexOverlappingSquares(t *testing.T) {
	a := Rect(BBox{0, 0, 2, 2})
	b := Rect(BBox{1, 1, 3, 3})
	got := ClipConvex(a, b)
	if math.Abs(got.Area()-1) > 1e-12 {
		t.Errorf("overlap area = %v, want 1", got.Area())
	}
}

func TestClipConvexContainment(t *testing.T) {
	outer := Rect(BBox{0, 0, 10, 10})
	inner := Rect(BBox{2, 2, 4, 4})
	if got := ClipConvex(inner, outer); math.Abs(got.Area()-4) > 1e-12 {
		t.Errorf("inner-in-outer area = %v, want 4", got.Area())
	}
	if got := ClipConvex(outer, inner); math.Abs(got.Area()-4) > 1e-12 {
		t.Errorf("outer-clipped-by-inner area = %v, want 4", got.Area())
	}
}

func TestClipConvexDisjoint(t *testing.T) {
	a := Rect(BBox{0, 0, 1, 1})
	b := Rect(BBox{5, 5, 6, 6})
	if got := ClipConvex(a, b); got != nil {
		t.Errorf("disjoint clip = %v, want nil", got)
	}
}

func TestClipConvexEdgeTouch(t *testing.T) {
	a := Rect(BBox{0, 0, 1, 1})
	b := Rect(BBox{1, 0, 2, 1})
	got := ClipConvex(a, b)
	if got.Area() > 1e-12 {
		t.Errorf("edge-touch area = %v, want 0", got.Area())
	}
}

func TestClipConvexTriangleSquare(t *testing.T) {
	tri := Polygon{{0, 0}, {2, 0}, {1, 2}}
	sq := Rect(BBox{0, 0, 2, 1})
	got := ClipConvex(tri, sq)
	// The clipped region is the trapezoid below y=1 inside the triangle:
	// area = total(2) - cap above y=1 (similar triangle, factor 1/2 → 0.5).
	if math.Abs(got.Area()-1.5) > 1e-12 {
		t.Errorf("triangle∩square area = %v, want 1.5", got.Area())
	}
}

func TestClipConvexAcceptsCWInputs(t *testing.T) {
	a := Rect(BBox{0, 0, 2, 2}).Reverse()
	b := Rect(BBox{1, 1, 3, 3}).Reverse()
	got := ClipConvex(a, b)
	if math.Abs(got.Area()-1) > 1e-12 {
		t.Errorf("CW inputs: area = %v, want 1", got.Area())
	}
}

func TestIntersectionAreaCommutesQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomConvexPolygon(rng)
		b := randomConvexPolygon(rng)
		x := IntersectionArea(a, b)
		y := IntersectionArea(b, a)
		tol := 1e-9 * (1 + a.Area() + b.Area())
		return math.Abs(x-y) <= tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestIntersectionAreaBounds(t *testing.T) {
	// overlap ≤ min(area(a), area(b)); self-overlap = area.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		a := randomConvexPolygon(rng)
		b := randomConvexPolygon(rng)
		x := IntersectionArea(a, b)
		if x > math.Min(a.Area(), b.Area())+1e-9 {
			t.Fatalf("overlap %v exceeds min area (%v, %v)", x, a.Area(), b.Area())
		}
		self := IntersectionArea(a, a)
		if math.Abs(self-a.Area()) > 1e-9*(1+a.Area()) {
			t.Fatalf("self overlap %v != area %v", self, a.Area())
		}
	}
}

func randomConvexPolygon(rng *rand.Rand) Polygon {
	c := Point{rng.Float64() * 4, rng.Float64() * 4}
	r := 0.3 + rng.Float64()*2
	n := 3 + rng.Intn(6)
	return RegularPolygon(c, r, n, rng.Float64()*math.Pi)
}

func TestIntersectionAreaConcaveClip(t *testing.T) {
	// L-shaped clip (area 3) against the big square: overlap is the L.
	l := Polygon{{0, 0}, {2, 0}, {2, 1}, {1, 1}, {1, 2}, {0, 2}}
	sq := Rect(BBox{0, 0, 2, 2})
	got := IntersectionArea(sq, l)
	if math.Abs(got-3) > 1e-9 {
		t.Errorf("L∩square = %v, want 3", got)
	}
	// And only the notch-adjacent quarter when the square covers the notch.
	notch := Rect(BBox{1, 1, 2, 2})
	if got := IntersectionArea(notch, l); got > 1e-9 {
		t.Errorf("L∩notch = %v, want 0", got)
	}
}

func TestIntersectionAreaBothConcave(t *testing.T) {
	// Two L-shapes, one flipped; analytic overlap.
	l1 := Polygon{{0, 0}, {2, 0}, {2, 1}, {1, 1}, {1, 2}, {0, 2}} // area 3
	// l2 is the mirrored L: top strip ∪ right column, also area 3.
	l2 := Polygon{{2, 2}, {0, 2}, {0, 1}, {1, 1}, {1, 0}, {2, 0}}
	inter := IntersectionArea(l1, l2)
	// Overlap = (0..1,1..2) ∪ (1..2,0..1): two unit squares.
	if math.Abs(inter-2) > 1e-9 {
		t.Errorf("mirrored Ls overlap = %v, want 2", inter)
	}
}

func TestIntersectionConvexReturnsPolygon(t *testing.T) {
	a := Rect(BBox{0, 0, 2, 2})
	b := Rect(BBox{1, 1, 3, 3})
	p := Intersection(a, b)
	if p == nil || math.Abs(p.Area()-1) > 1e-12 {
		t.Errorf("Intersection = %v", p)
	}
	if p.SignedArea() <= 0 {
		t.Error("Intersection result not CCW")
	}
}

func TestHalfPlaneClip(t *testing.T) {
	sq := Rect(BBox{0, 0, 2, 2})
	// Keep x <= 1.
	got := HalfPlaneClip(sq, Point{1, 0}, 1)
	if math.Abs(got.Area()-2) > 1e-12 {
		t.Errorf("half-plane area = %v, want 2", got.Area())
	}
	for _, p := range got {
		if p.X > 1+1e-12 {
			t.Errorf("vertex %v escapes the half-plane", p)
		}
	}
	// Plane misses polygon entirely: keep everything.
	all := HalfPlaneClip(sq, Point{1, 0}, 10)
	if math.Abs(all.Area()-4) > 1e-12 {
		t.Errorf("no-op clip area = %v, want 4", all.Area())
	}
	// Plane excludes polygon entirely.
	none := HalfPlaneClip(sq, Point{1, 0}, -1)
	if none != nil {
		t.Errorf("full clip = %v, want nil", none)
	}
}

func TestHalfPlaneClipDiagonal(t *testing.T) {
	sq := Rect(BBox{0, 0, 1, 1})
	// Keep x + y <= 1: the lower-left triangle, area 1/2.
	got := HalfPlaneClip(sq, Point{1, 1}, 1)
	if math.Abs(got.Area()-0.5) > 1e-12 {
		t.Errorf("diagonal clip area = %v, want 0.5", got.Area())
	}
}

// Property: sequential half-plane clips commute in area with a direct
// convex clip of the implied rectangle.
func TestHalfPlaneClipMatchesClipConvexQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pg := randomConvexPolygon(rng)
		lo := Point{rng.Float64() * 4, rng.Float64() * 4}
		hi := Point{lo.X + 0.5 + rng.Float64()*2, lo.Y + 0.5 + rng.Float64()*2}
		box := BBox{lo.X, lo.Y, hi.X, hi.Y}
		// Clip by the four half-planes of the box.
		c := pg.Clone().EnsureCCW()
		c = HalfPlaneClip(c, Point{-1, 0}, -box.MinX)
		c = HalfPlaneClip(c, Point{1, 0}, box.MaxX)
		c = HalfPlaneClip(c, Point{0, -1}, -box.MinY)
		c = HalfPlaneClip(c, Point{0, 1}, box.MaxY)
		want := ClipConvex(pg, Rect(box)).Area()
		return math.Abs(c.Area()-want) <= 1e-9*(1+want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestClamp01MatchesMathMinMax pins clamp01 to the math.Max(0,
// math.Min(1, t)) it replaces, bit for bit, on the values where
// comparisons and math.Min/Max can part ways.
func TestClamp01MatchesMathMinMax(t *testing.T) {
	for _, v := range []float64{
		math.Copysign(0, -1), 0, 1, math.Nextafter(1, 2), 2, -1, 0.5,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
	} {
		want := math.Max(0, math.Min(1, v))
		if got := clamp01(v); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("clamp01(%v) = %v (%#x), want %v (%#x)", v, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}
