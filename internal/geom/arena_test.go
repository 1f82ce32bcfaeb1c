package geom

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// triangulateRef is the ear clipper as it was before it wrote into
// caller-owned buffers — one Polygon allocated per triangle — kept as
// the oracle the flat routine must match bit for bit.
func triangulateRef(pg Polygon) ([]Polygon, error) {
	n := len(pg)
	if n < 3 {
		return nil, ErrDegeneratePolygon
	}
	work := pg.Clone().EnsureCCW()
	var tris []Polygon
	guard := 0
	for len(work) > 3 {
		n := len(work)
		clipped := false
		for i := 0; i < n; i++ {
			prev := work[(i-1+n)%n]
			cur := work[i]
			next := work[(i+1)%n]
			if Orient(prev, cur, next) <= 0 {
				continue
			}
			if containsOtherVertex(work, prev, cur, next, i) {
				continue
			}
			tris = append(tris, Polygon{prev, cur, next})
			work = append(work[:i], work[i+1:]...)
			clipped = true
			break
		}
		if !clipped {
			dropped := false
			for i := 0; i < len(work); i++ {
				m := len(work)
				if Orient(work[(i-1+m)%m], work[i], work[(i+1)%m]) == 0 {
					work = append(work[:i], work[i+1:]...)
					dropped = true
					break
				}
			}
			if !dropped {
				return nil, ErrTriangulation
			}
			if len(work) < 3 {
				break
			}
		}
		guard++
		if guard > 4*n+len(pg)*4+16 {
			return nil, ErrTriangulation
		}
	}
	if len(work) == 3 && Orient(work[0], work[1], work[2]) != 0 {
		tris = append(tris, Polygon{work[0], work[1], work[2]})
	}
	return tris, nil
}

// samePointBits reports whether two points have identical bit patterns.
func samePointBits(a, b Point) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) && math.Float64bits(a.Y) == math.Float64bits(b.Y)
}

// checkArenaTriangulation triangulates pg every way the package can —
// appendTriangles behind an arena prefix with a reused work ring,
// Triangulate, and a shared and an arena PreparedPolygon — and fails
// unless each gives the oracle's triangles, in its order, bit for bit.
func checkArenaTriangulation(t *testing.T, pg Polygon, arena, work []Point) ([]Point, []Point) {
	t.Helper()
	want, wantErr := triangulateRef(pg)
	same := func(how string, flat []Point, err error) {
		t.Helper()
		if (err != nil) != (wantErr != nil) || (err != nil && err != wantErr) {
			t.Fatalf("%s: error %v, oracle %v (ring %v)", how, err, wantErr, pg)
		}
		if err != nil {
			return
		}
		if len(flat) != 3*len(want) {
			t.Fatalf("%s: %d triangle vertices, oracle %d triangles (ring %v)", how, len(flat), len(want), pg)
		}
		for k, tri := range want {
			for v := range tri {
				if !samePointBits(flat[3*k+v], tri[v]) {
					t.Fatalf("%s: triangle %d vertex %d is %v, oracle %v", how, k, v, flat[3*k+v], tri[v])
				}
			}
		}
	}

	lo := len(arena)
	arena, work, err := appendTriangles(arena, work, pg)
	same("appendTriangles", arena[lo:], err)
	if err != nil {
		arena = arena[:lo]
	}

	tris, err := Triangulate(pg)
	var flat []Point
	for _, tri := range tris {
		if len(tri) != 3 {
			t.Fatalf("Triangulate: triangle of %d vertices", len(tri))
		}
		flat = append(flat, tri...)
	}
	same("Triangulate", flat, err)

	if len(pg) >= 3 {
		var sc ClipScratch
		shared := NewPreparedPolygon(pg)
		got, corners, err := shared.triangulation(&sc)
		same("shared PreparedPolygon", got, err)
		checkCorners(t, got, corners)

		var inArena PreparedPolygon
		sc.arena = append(sc.arena, Point{X: 1, Y: 2}) // an earlier polygon's triangles
		inArena.PrepareInArena(pg.Clone(), pg.BBox())
		got, corners, err = inArena.triangulation(&sc)
		same("arena PreparedPolygon", got, err)
		checkCorners(t, got, corners)
		if err == nil && len(got) > 0 && &got[0] != &sc.arena[1] {
			t.Fatal("arena PreparedPolygon: triangles not in the scratch arena")
		}
	}
	return arena, work
}

// checkCorners checks each triangle's cached bounding box.
func checkCorners(t *testing.T, tris, corners []Point) {
	t.Helper()
	if len(corners) != 2*len(tris)/3 {
		t.Fatalf("%d corners for %d triangles", len(corners), len(tris)/3)
	}
	for k := 0; 3*k < len(tris); k++ {
		b := Polygon(tris[3*k : 3*k+3]).BBox()
		if corners[2*k] != (Point{X: b.MinX, Y: b.MinY}) || corners[2*k+1] != (Point{X: b.MaxX, Y: b.MaxY}) {
			t.Fatalf("triangle %d: corners %v %v, bounding box %+v", k, corners[2*k], corners[2*k+1], b)
		}
	}
}

// jaggedRing is a star ring whose radii alternate between an inner and
// an outer band, snapped to a coarse grid when snap > 0 so that
// collinear runs and repeated vertices occur, in a random orientation.
func jaggedRing(rng *rand.Rand, n int, snap float64) Polygon {
	pg := make(Polygon, n)
	for i := range pg {
		ang := 2 * math.Pi * (float64(i) + 0.8*rng.Float64()) / float64(n)
		r := 1 + rng.Float64()
		if i%2 == 1 {
			r = 2.5 + 2*rng.Float64()
		}
		p := Point{X: 10 + r*math.Cos(ang), Y: -4 + r*math.Sin(ang)}
		if snap > 0 {
			p = Point{X: math.Round(p.X/snap) * snap, Y: math.Round(p.Y/snap) * snap}
		}
		pg[i] = p
	}
	if rng.Intn(2) == 0 {
		pg.Reverse()
	}
	return pg
}

// TestArenaTriangulationMatchesOracle is the property that lets the
// flat ear clipper replace the allocating one: on random star rings,
// jagged rings, grid-snapped jagged rings (collinear and repeated
// vertices, some untriangulable) and degenerate inputs, every
// triangulation path gives the oracle's triangles bit for bit, whether
// it writes into a fresh buffer, behind earlier triangles in an arena,
// or into a shared prepared polygon's single allocation.
func TestArenaTriangulationMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	var arena, work []Point
	rings := []Polygon{nil, {{0, 0}, {1, 1}}, {{0, 0}, {1, 0}, {2, 0}}, {{0, 0}, {1, 0}, {1, 1}}}
	for trial := 0; trial < 400; trial++ {
		n := 4 + rng.Intn(40)
		switch trial % 4 {
		case 0:
			rings = append(rings, randomStarPolygon(rng, n))
		case 1:
			rings = append(rings, jaggedRing(rng, n, 0))
		case 2:
			rings = append(rings, jaggedRing(rng, n, 0.5))
		case 3:
			rings = append(rings, jaggedRing(rng, n, 1))
		}
	}
	failures := 0
	for _, pg := range rings {
		arena, work = checkArenaTriangulation(t, pg, arena, work)
		if _, err := triangulateRef(pg); err != nil {
			failures++
		}
	}
	if failures <= 2 || failures >= len(rings)/2 {
		t.Fatalf("%d of %d rings fail to triangulate: the trials miss a case", failures, len(rings))
	}
}

// FuzzArenaTriangulation feeds arbitrary rings — vertices read as
// int16 pairs from the input, so repeats, collinear runs and
// self-intersections are common — to every triangulation path and
// requires the oracle's answer bit for bit.
func FuzzArenaTriangulation(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 10, 0, 0, 0, 10, 0, 10, 0, 0, 0, 10, 0})
	f.Add([]byte{0, 0, 0, 0, 6, 0, 0, 0, 6, 0, 3, 0, 5, 0, 3, 0, 5, 0, 1, 0, 4, 0, 1, 0, 4, 0, 3, 0, 0, 0, 3, 0})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		n := min(len(raw)/4, 48)
		pg := make(Polygon, n)
		for i := range pg {
			pg[i] = Point{
				X: float64(int16(binary.LittleEndian.Uint16(raw[4*i:]))),
				Y: float64(int16(binary.LittleEndian.Uint16(raw[4*i+2:]))),
			}
		}
		checkArenaTriangulation(t, pg, []Point{{X: 7, Y: 7}}, nil)
	})
}

// clipConvexAreaRef is the scratch clipper before the first edge read
// the subject in place and each edge's b−a was hoisted: every vertex
// through Orient and the three-point crossing formula.
func clipConvexAreaRef(subject, clip Polygon) float64 {
	if len(subject) < 3 || len(clip) < 3 {
		return 0
	}
	cur := subject.Clone()
	n := len(clip)
	for i := 0; i < n && len(cur) > 0; i++ {
		a, b := clip[i], clip[(i+1)%n]
		var out Polygon
		prev := cur[len(cur)-1]
		prevIn := Orient(a, b, prev) >= 0
		for _, c := range cur {
			cIn := Orient(a, b, c) >= 0
			if cIn != prevIn {
				d, e := b.Sub(a), c.Sub(prev)
				if denom := d.Cross(e); denom != 0 {
					s := prev.Sub(a).Cross(d) / denom
					out = append(out, prev.Add(e.Scale(math.Max(0, math.Min(1, s)))))
				}
			}
			if cIn {
				out = append(out, c)
			}
			prev, prevIn = c, cIn
		}
		cur = out
	}
	if len(cur) < 3 {
		return 0
	}
	return cur.Area()
}

// TestClipConvexAreaMatchesReference checks the trimmed clip kernel
// against the per-vertex formulas bit for bit, on subjects that are
// jagged, snapped to a grid (vertices exactly on clip edges) or
// disjoint from the clip, against convex polygons and triangles.
func TestClipConvexAreaMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var sc ClipScratch
	zeros := 0
	for trial := 0; trial < 3000; trial++ {
		subject := jaggedRing(rng, 4+rng.Intn(30), []float64{0, 0.5}[trial%2]).EnsureCCW()
		var clip Polygon
		if trial%3 == 0 {
			clip = Polygon{{X: 6 + 8*rng.Float64(), Y: -8 + 8*rng.Float64()}, {X: 6 + 8*rng.Float64(), Y: -8 + 8*rng.Float64()}, {X: 6 + 8*rng.Float64(), Y: -8 + 8*rng.Float64()}}.EnsureCCW()
		} else {
			clip = RegularPolygon(Point{X: 4 + 12*rng.Float64(), Y: -10 + 12*rng.Float64()}, 0.5+4*rng.Float64(), 3+rng.Intn(8), rng.Float64())
		}
		got, want := sc.clipConvexArea(subject, clip), clipConvexAreaRef(subject, clip)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: clipConvexArea %v, reference %v", trial, got, want)
		}
		if got == 0 {
			zeros++
		}
	}
	if zeros == 0 || zeros == 3000 {
		t.Fatalf("%d of 3000 clips were empty: the trials miss a case", zeros)
	}
}
