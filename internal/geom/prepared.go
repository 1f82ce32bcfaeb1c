package geom

import "sync"

// PreparedPolygon caches the per-polygon work IntersectionArea repeats
// on every call: the bounding box, the convexity classification, and —
// lazily, because convex-vs-convex pairs never need it — the ear-clipping
// triangulation with per-triangle bounding boxes. Crosswalk
// preprocessing intersects every unit with every overlapping unit of the
// other layer, so a target overlapped by p sources would otherwise be
// classified p times and triangulated p times (IsConvex is O(n),
// Triangulate O(n²)); preparing each unit once makes those costs
// per-unit instead of per-pair.
//
// A PreparedPolygon is immutable after construction and safe for
// concurrent use: the lazy triangulation is guarded by a sync.Once.
// Its triangles live in one allocation of their own, or — for a
// polygon prepared with PrepareInArena — in the triangle arena of the
// ClipScratch that first needs them.
type PreparedPolygon struct {
	ring    Polygon // CCW-normalized private copy
	bbox    BBox
	convex  bool
	inArena bool // triangulate into the asking scratch's arena

	triOnce sync.Once
	tris    []Point // triangle k is tris[3k:3k+3], CCW
	corners []Point // triangle k's bounding box is corners[2k] to corners[2k+1]
	triErr  error
}

// NewPreparedPolygon prepares a polygon for repeated intersection-area
// queries. The input is cloned and normalized to CCW orientation, so
// later mutation of pg does not affect the prepared form.
func NewPreparedPolygon(pg Polygon) *PreparedPolygon {
	ring := pg.Clone()
	p := new(PreparedPolygon)
	p.PrepareOwned(ring, ring.BBox())
	return p
}

// PrepareOwned (re)initialises p over a ring the caller hands over,
// without the clone NewPreparedPolygon makes: ring is normalised to CCW
// in place and becomes p's, box must be its bounding box, and any
// triangulation cached from an earlier ring is dropped. It lets a
// caller that decodes rings into its own buffers prepare them in an
// arena reused from batch to batch; p must not be in use by another
// goroutine while it is re-prepared.
func (p *PreparedPolygon) PrepareOwned(ring Polygon, box BBox) {
	ring = ring.EnsureCCW()
	*p = PreparedPolygon{ring: ring, bbox: box, convex: ring.IsConvex()}
}

// PrepareInArena is PrepareOwned for a polygon that lives no longer
// than one batch of a single worker: its triangulation, when a
// ClipScratch first needs it, is appended to that scratch's triangle
// arena instead of a fresh allocation. After the scratch's
// ResetArena, p must be re-prepared before it is used again, and p
// must only ever be passed to that one scratch.
func (p *PreparedPolygon) PrepareInArena(ring Polygon, box BBox) {
	p.PrepareOwned(ring, box)
	p.inArena = true
}

// Ring returns the CCW-normalized vertex ring. Callers must not modify
// it.
func (p *PreparedPolygon) Ring() Polygon { return p.ring }

// BBox returns the cached bounding box.
func (p *PreparedPolygon) BBox() BBox { return p.bbox }

// IsConvex returns the cached convexity classification.
func (p *PreparedPolygon) IsConvex() bool { return p.convex }

// Area returns the polygon area.
func (p *PreparedPolygon) Area() float64 { return p.ring.Area() }

// triangulation computes and caches, once, the triangles and their
// bounding-box corners, with sc's work ring for the ear clipping. A
// shared polygon takes one allocation sized for n−2 triangles; an
// arena polygon appends to sc's arena.
func (p *PreparedPolygon) triangulation(sc *ClipScratch) (tris, corners []Point, err error) {
	p.triOnce.Do(func() {
		var buf []Point
		if p.inArena {
			buf = sc.arena
		} else if n := len(p.ring); n >= 3 {
			buf = make([]Point, 0, 5*(n-2))
		}
		lo := len(buf)
		buf, sc.work, p.triErr = appendTriangles(buf, sc.work, p.ring)
		if p.triErr != nil {
			buf = buf[:lo]
		} else {
			mid := len(buf)
			for k := lo; k < mid; k += 3 {
				b := Polygon(buf[k : k+3]).BBox()
				buf = append(buf, Point{X: b.MinX, Y: b.MinY}, Point{X: b.MaxX, Y: b.MaxY})
			}
			p.tris = buf[lo:mid:mid]
			p.corners = buf[mid:len(buf):len(buf)]
		}
		if p.inArena {
			sc.arena = buf
		}
	})
	return p.tris, p.corners, p.triErr
}

// ClipScratch holds reusable clipping buffers so the inner loop of
// crosswalk preprocessing is allocation-free in steady state: the two
// ping-pong rings grow to the largest clip result seen and are then
// reused for every subsequent pair, the work ring to the largest
// polygon triangulated, and the triangle arena to the largest batch of
// PrepareInArena polygons. The zero value is ready to use. A
// ClipScratch is not safe for concurrent use; give each worker its own.
type ClipScratch struct {
	cur, nxt Polygon
	work     []Point // ear-clipping ring
	arena    []Point // triangles and corners of PrepareInArena polygons
}

// ResetArena empties the triangle arena for the next batch of
// PrepareInArena polygons, keeping its capacity. Every polygon whose
// triangles were in it must be re-prepared before it is used again.
func (sc *ClipScratch) ResetArena() { sc.arena = sc.arena[:0] }

// clipConvexArea returns the overlap area of a simple CCW subject ring
// clipped against a convex CCW clip ring (Sutherland–Hodgman), writing
// every intermediate ring into the scratch buffers. It performs the same
// arithmetic as ClipConvex(subject, clip).Area() for CCW inputs, without
// the per-call clones and result allocation; the first edge reads the
// subject directly instead of a copy of it.
func (sc *ClipScratch) clipConvexArea(subject, clip Polygon) float64 {
	if len(subject) < 3 || len(clip) < 3 {
		return 0
	}
	n := len(clip)
	cur := appendClipEdge(sc.cur[:0], subject, clip[0], clip[1])
	nxt := sc.nxt[:0]
	for i := 1; i < n && len(cur) > 0; i++ {
		nxt = appendClipEdge(nxt[:0], cur, clip[i], clip[(i+1)%n])
		cur, nxt = nxt, cur
	}
	sc.cur, sc.nxt = cur, nxt // keep the grown capacity for the next pair
	if len(cur) < 3 {
		return 0
	}
	return Polygon(cur).Area()
}

// PreparedIntersectionArea returns the overlap area of two prepared
// polygons. It follows exactly the branch structure of IntersectionArea
// — convex fast path, triangulate-the-clip, fall back to
// triangulate-the-subject — but reads every bbox, convexity flag and
// triangulation from the caches, so repeated pairs involving the same
// polygon pay the O(n²) decomposition once.
//
// It is equivalent to IntersectionArea(a.Ring(), b.Ring()) and is safe
// to call concurrently on shared prepared polygons.
func PreparedIntersectionArea(a, b *PreparedPolygon) float64 {
	var sc ClipScratch
	return sc.PreparedIntersectionArea(a, b)
}

// PreparedIntersectionArea is the allocation-free variant: all
// intermediate rings live in the scratch arena.
func (sc *ClipScratch) PreparedIntersectionArea(a, b *PreparedPolygon) float64 {
	if a == nil || b == nil || len(a.ring) < 3 || len(b.ring) < 3 {
		return 0
	}
	if !a.bbox.Intersects(b.bbox) {
		return 0
	}
	if b.convex {
		return sc.clipConvexArea(a.ring, b.ring)
	}
	if a.convex {
		return sc.clipConvexArea(b.ring, a.ring)
	}
	tris, corners, err := b.triangulation(sc)
	if err != nil {
		// Fall back to triangulating the other polygon, mirroring
		// IntersectionArea's fallback (which sums over all triangles
		// without a bbox filter).
		tris, _, err = a.triangulation(sc)
		if err != nil {
			return 0
		}
		var total float64
		for k := 0; k < len(tris); k += 3 {
			total += sc.clipConvexArea(b.ring, Polygon(tris[k:k+3]))
		}
		return total
	}
	var total float64
	for j := 0; 3*j < len(tris); j++ {
		lo, hi := corners[2*j], corners[2*j+1]
		if !(BBox{MinX: lo.X, MinY: lo.Y, MaxX: hi.X, MaxY: hi.Y}).Intersects(a.bbox) {
			continue
		}
		total += sc.clipConvexArea(a.ring, Polygon(tris[3*j:3*j+3]))
	}
	return total
}

// PreparedHoledPolygon is the prepared form of a HoledPolygon: the outer
// ring and every hole prepared individually, so the inclusion–exclusion
// overlap of holed units reuses the cached decompositions. It holds its
// rings by value, so a slice of them is one allocation; like
// PreparedPolygon it must not be copied once in use.
type PreparedHoledPolygon struct {
	Outer PreparedPolygon
	Holes []PreparedPolygon
}

// Prepare initialises p in place over private CCW copies of hp's
// rings, so a caller can prepare parts into a slice it owns.
func (p *PreparedHoledPolygon) Prepare(hp HoledPolygon) {
	p.Outer.PrepareOwned(hp.Outer.Clone(), hp.Outer.BBox())
	p.Holes = make([]PreparedPolygon, len(hp.Holes))
	for i, h := range hp.Holes {
		p.Holes[i].PrepareOwned(h.Clone(), h.BBox())
	}
}

// BBox returns the outer ring's cached bounding box.
func (p *PreparedHoledPolygon) BBox() BBox { return p.Outer.bbox }

// Contains is HoledPolygon.Contains on the prepared rings.
func (p *PreparedHoledPolygon) Contains(pt Point) bool {
	if !p.Outer.ring.Contains(pt) {
		return false
	}
	for i := range p.Holes {
		if h := p.Holes[i].ring; h.Contains(pt) && !onBoundary(h, pt) {
			return false
		}
	}
	return true
}

// PreparedHoledIntersectionArea mirrors HoledIntersectionArea on
// prepared rings: inclusion–exclusion over outer∩outer, outer∩hole and
// hole∩hole overlaps, every term served from the caches. On hole-free
// rings it is PreparedIntersectionArea of the outers.
func (sc *ClipScratch) PreparedHoledIntersectionArea(a, b *PreparedHoledPolygon) float64 {
	if !a.Outer.bbox.Intersects(b.Outer.bbox) {
		return 0
	}
	total := sc.PreparedIntersectionArea(&a.Outer, &b.Outer)
	for j := range b.Holes {
		total -= sc.PreparedIntersectionArea(&a.Outer, &b.Holes[j])
	}
	for i := range a.Holes {
		ha := &a.Holes[i]
		total -= sc.PreparedIntersectionArea(ha, &b.Outer)
		for j := range b.Holes {
			total += sc.PreparedIntersectionArea(ha, &b.Holes[j])
		}
	}
	if total < 0 {
		total = 0 // guard against rounding on tangent rings
	}
	return total
}
