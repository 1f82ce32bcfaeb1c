package geom

import (
	"math"
	"math/rand"
	"testing"
)

func BenchmarkClipConvex(b *testing.B) {
	b.ReportAllocs()
	a := RegularPolygon(Point{X: 0, Y: 0}, 2, 12, 0)
	c := RegularPolygon(Point{X: 1, Y: 0.5}, 2, 10, 0.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ClipConvex(a, c)
	}
}

func BenchmarkIntersectionAreaConvex(b *testing.B) {
	b.ReportAllocs()
	a := RegularPolygon(Point{X: 0, Y: 0}, 2, 16, 0)
	c := RegularPolygon(Point{X: 1, Y: 0.5}, 2, 16, 0.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = IntersectionArea(a, c)
	}
}

func BenchmarkIntersectionAreaConcave(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	star := make(Polygon, 14)
	for i := range star {
		ang := 2 * math.Pi * float64(i) / 14
		r := 1 + rng.Float64()*2
		star[i] = Point{X: 3 + r*math.Cos(ang), Y: 3 + r*math.Sin(ang)}
	}
	conv := RegularPolygon(Point{X: 3.5, Y: 3}, 2, 10, 0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = IntersectionArea(conv, star)
	}
}

func BenchmarkTriangulate(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(2))
	star := make(Polygon, 30)
	for i := range star {
		ang := 2 * math.Pi * float64(i) / 30
		r := 1 + rng.Float64()*2
		star[i] = Point{X: r * math.Cos(ang), Y: r * math.Sin(ang)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Triangulate(star); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPreparedIntersectionArea times the scratch kernel on a
// concave pair, so the clip triangle path runs: "shared" re-prepares
// the clip polygon each iteration, its triangles in one allocation of
// their own, and "arena" re-prepares it into the scratch's triangle
// arena, as a tile join does.
func BenchmarkPreparedIntersectionArea(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	star := func(n int, c Point) Polygon {
		pg := make(Polygon, n)
		for i := range pg {
			ang := 2 * math.Pi * float64(i) / float64(n)
			r := 1 + rng.Float64()*2
			pg[i] = Point{X: c.X + r*math.Cos(ang), Y: c.Y + r*math.Sin(ang)}
		}
		return pg
	}
	subject := NewPreparedPolygon(star(12, Point{X: 0.5, Y: 0.2}))
	ring := star(30, Point{}).EnsureCCW()
	box := ring.BBox()
	var sc ClipScratch
	var clip PreparedPolygon
	b.Run("shared", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			clip.PrepareOwned(ring, box)
			_ = sc.PreparedIntersectionArea(subject, &clip)
		}
	})
	b.Run("arena", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sc.ResetArena()
			clip.PrepareInArena(ring, box)
			_ = sc.PreparedIntersectionArea(subject, &clip)
		}
	})
}

func BenchmarkContains(b *testing.B) {
	pg := RegularPolygon(Point{X: 0, Y: 0}, 1, 24, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pg.Contains(Point{X: 0.3, Y: 0.2})
	}
}
