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
type PreparedPolygon struct {
	ring   Polygon // CCW-normalized private copy
	bbox   BBox
	convex bool

	triOnce sync.Once
	tris    []Polygon
	triBB   []BBox
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

// Ring returns the CCW-normalized vertex ring. Callers must not modify
// it.
func (p *PreparedPolygon) Ring() Polygon { return p.ring }

// BBox returns the cached bounding box.
func (p *PreparedPolygon) BBox() BBox { return p.bbox }

// IsConvex returns the cached convexity classification.
func (p *PreparedPolygon) IsConvex() bool { return p.convex }

// Area returns the polygon area.
func (p *PreparedPolygon) Area() float64 { return p.ring.Area() }

// Triangles returns the cached ear-clipping triangulation (computed on
// first use). The returned slice is shared; callers must not modify it.
func (p *PreparedPolygon) Triangles() ([]Polygon, error) {
	tris, _, err := p.triangulation()
	return tris, err
}

// triangulation computes and caches the triangulation plus per-triangle
// bounding boxes, once.
func (p *PreparedPolygon) triangulation() ([]Polygon, []BBox, error) {
	p.triOnce.Do(func() {
		p.tris, p.triErr = Triangulate(p.ring)
		if p.triErr == nil {
			p.triBB = make([]BBox, len(p.tris))
			for i, t := range p.tris {
				p.triBB[i] = t.BBox()
			}
		}
	})
	return p.tris, p.triBB, p.triErr
}

// ClipScratch holds reusable clipping buffers so the inner loop of
// crosswalk preprocessing is allocation-free in steady state: the two
// ping-pong rings grow to the largest clip result seen and are then
// reused for every subsequent pair. The zero value is ready to use. A
// ClipScratch is not safe for concurrent use; give each worker its own.
type ClipScratch struct {
	cur, nxt Polygon
}

// clipConvexArea returns the overlap area of a simple CCW subject ring
// clipped against a convex CCW clip ring (Sutherland–Hodgman), writing
// every intermediate ring into the scratch buffers. It performs the same
// arithmetic as ClipConvex(subject, clip).Area() for CCW inputs, without
// the per-call clones and result allocation.
func (sc *ClipScratch) clipConvexArea(subject, clip Polygon) float64 {
	if len(subject) < 3 || len(clip) < 3 {
		return 0
	}
	cur := append(sc.cur[:0], subject...)
	nxt := sc.nxt[:0]
	n := len(clip)
	for i := 0; i < n && len(cur) > 0; i++ {
		a, b := clip[i], clip[(i+1)%n]
		nxt = appendClipEdge(nxt[:0], cur, a, b)
		cur, nxt = nxt, cur
	}
	sc.cur, sc.nxt = cur, nxt // keep the grown capacity for the next pair
	if len(cur) < 3 {
		return 0
	}
	return Polygon(cur).Area()
}

// appendClipEdge is clipAgainstEdge writing into a caller-provided
// buffer: it appends the part of pg left of the directed line a→b to dst
// and returns the extended slice.
func appendClipEdge(dst Polygon, pg Polygon, a, b Point) Polygon {
	n := len(pg)
	if n == 0 {
		return dst
	}
	prev := pg[n-1]
	prevIn := Orient(a, b, prev) >= 0
	for _, cur := range pg {
		curIn := Orient(a, b, cur) >= 0
		if curIn != prevIn {
			if p, ok := lineSegCross(a, b, prev, cur); ok {
				dst = append(dst, p)
			}
		}
		if curIn {
			dst = append(dst, cur)
		}
		prev, prevIn = cur, curIn
	}
	return dst
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
	tris, triBB, err := b.triangulation()
	if err != nil {
		// Fall back to triangulating the other polygon, mirroring
		// IntersectionArea's fallback (which sums over all triangles
		// without a bbox filter).
		tris, _, err = a.triangulation()
		if err != nil {
			return 0
		}
		var total float64
		for _, t := range tris {
			total += sc.clipConvexArea(b.ring, t)
		}
		return total
	}
	var total float64
	for k, t := range tris {
		if !triBB[k].Intersects(a.bbox) {
			continue
		}
		total += sc.clipConvexArea(a.ring, t)
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
