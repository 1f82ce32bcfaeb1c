package geom

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// randomStar returns a simple (star-shaped) polygon around c: vertices
// at sorted angles with random radii. With enough radius spread it is
// non-convex almost surely.
func randomStar(rng *rand.Rand, c Point, n int, rmin, rmax float64) Polygon {
	pg := make(Polygon, n)
	for i := 0; i < n; i++ {
		ang := 2 * math.Pi * (float64(i) + 0.2 + 0.6*rng.Float64()) / float64(n)
		r := rmin + rng.Float64()*(rmax-rmin)
		pg[i] = Point{X: c.X + r*math.Cos(ang), Y: c.Y + r*math.Sin(ang)}
	}
	return pg
}

// maybeReverse randomly flips orientation so both CW and CCW inputs are
// exercised.
func maybeReverse(rng *rand.Rand, pg Polygon) Polygon {
	if rng.Intn(2) == 0 {
		return pg.Clone().Reverse()
	}
	return pg
}

func relClose(t *testing.T, got, want float64, context string) {
	t.Helper()
	if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
		t.Fatalf("%s: prepared = %.15g, reference = %.15g", context, got, want)
	}
}

// TestPreparedIntersectionAreaProperty fuzzes random convex and
// non-convex pairs in every combination and checks the prepared kernel
// against geom.IntersectionArea to 1e-9 relative.
func TestPreparedIntersectionAreaProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sc ClipScratch // deliberately shared across all cases: reuse must not leak state
	for iter := 0; iter < 400; iter++ {
		ca := Point{X: rng.Float64() * 4, Y: rng.Float64() * 4}
		cb := Point{X: rng.Float64() * 4, Y: rng.Float64() * 4}
		var a, b Polygon
		if iter%4 < 2 { // convex a on half the cases
			a = RegularPolygon(ca, 0.5+2*rng.Float64(), 5+rng.Intn(10), rng.Float64())
		} else {
			a = randomStar(rng, ca, 6+rng.Intn(12), 0.3, 2.5)
		}
		if iter%2 == 0 {
			b = RegularPolygon(cb, 0.5+2*rng.Float64(), 5+rng.Intn(10), rng.Float64())
		} else {
			b = randomStar(rng, cb, 6+rng.Intn(12), 0.3, 2.5)
		}
		a, b = maybeReverse(rng, a), maybeReverse(rng, b)
		want := IntersectionArea(a, b)
		pa, pb := NewPreparedPolygon(a), NewPreparedPolygon(b)
		relClose(t, sc.PreparedIntersectionArea(pa, pb), want, "scratch kernel")
		relClose(t, PreparedIntersectionArea(pa, pb), want, "convenience kernel")
	}
}

// TestPreparedHoledIntersectionAreaProperty checks the holed kernel on
// random star outers with a smaller star hole inside each.
func TestPreparedHoledIntersectionAreaProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var sc ClipScratch
	makeHoled := func(c Point) HoledPolygon {
		outer := randomStar(rng, c, 8+rng.Intn(8), 1.5, 3)
		hole := randomStar(rng, c, 5+rng.Intn(5), 0.2, 0.6)
		return HoledPolygon{Outer: outer, Holes: []Polygon{hole}}
	}
	for iter := 0; iter < 150; iter++ {
		a := makeHoled(Point{X: rng.Float64() * 3, Y: rng.Float64() * 3})
		b := makeHoled(Point{X: rng.Float64() * 3, Y: rng.Float64() * 3})
		want := HoledIntersectionArea(a, b)
		var pa, pb PreparedHoledPolygon
		pa.Prepare(a)
		pb.Prepare(b)
		got := sc.PreparedHoledIntersectionArea(&pa, &pb)
		relClose(t, got, want, "holed kernel")
	}
}

// TestPreparedPolygonCaches checks the cached classification against
// the direct computations and that preparing is input-isolated.
func TestPreparedPolygonCaches(t *testing.T) {
	sq := Polygon{{0, 0}, {2, 0}, {2, 2}, {0, 2}}
	p := NewPreparedPolygon(sq)
	if !p.IsConvex() {
		t.Fatal("square not classified convex")
	}
	if p.BBox() != sq.BBox() {
		t.Fatalf("bbox mismatch: %v vs %v", p.BBox(), sq.BBox())
	}
	if math.Abs(p.Area()-4) > 1e-12 {
		t.Fatalf("area = %g", p.Area())
	}
	// Mutating the input after preparation must not change the cache.
	sq[0] = Point{X: -100, Y: -100}
	if p.BBox().MinX != 0 {
		t.Fatal("prepared polygon aliases its input")
	}

	l := Polygon{{0, 0}, {2, 0}, {2, 1}, {1, 1}, {1, 2}, {0, 2}}
	pl := NewPreparedPolygon(l)
	if pl.IsConvex() {
		t.Fatal("L-shape classified convex")
	}
	var sc ClipScratch
	tris, _, err := pl.triangulation(&sc)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for k := 0; k < len(tris); k += 3 {
		sum += Polygon(tris[k : k+3]).Area()
	}
	if math.Abs(sum-3) > 1e-12 {
		t.Fatalf("triangulation area = %g, want 3", sum)
	}
}

// TestPreparedConcurrentLazyTriangulation hammers one shared prepared
// polygon from many goroutines (own scratch each) so the race detector
// can check the sync.Once-guarded lazy triangulation.
func TestPreparedConcurrentLazyTriangulation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	star := randomStar(rng, Point{X: 1, Y: 1}, 16, 0.5, 2.5)
	shared := NewPreparedPolygon(star)
	probes := make([]*PreparedPolygon, 8)
	for i := range probes {
		probes[i] = NewPreparedPolygon(randomStar(rng, Point{X: 1.2, Y: 0.8}, 10, 0.4, 2))
	}
	want := make([]float64, len(probes))
	for i, p := range probes {
		want[i] = IntersectionArea(p.Ring(), shared.Ring())
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc ClipScratch
			for rep := 0; rep < 20; rep++ {
				for i, p := range probes {
					got := sc.PreparedIntersectionArea(p, shared)
					if math.Abs(got-want[i]) > 1e-9*(1+want[i]) {
						t.Errorf("probe %d: got %g want %g", i, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
