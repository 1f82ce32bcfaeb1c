package geom

// ClipConvex clips the subject polygon against a convex CCW clip
// polygon using the Sutherland–Hodgman algorithm. The subject may be
// any simple polygon (the result can contain zero-width bridges for
// strongly non-convex subjects, but its area is exact, which is all the
// areal-interpolation pipeline needs). The result is CCW; an empty
// polygon means no overlap.
func ClipConvex(subject, clip Polygon) Polygon {
	if len(subject) < 3 || len(clip) < 3 {
		return nil
	}
	out := subject.Clone().EnsureCCW()
	c := clip.Clone().EnsureCCW()
	n := len(c)
	for i := 0; i < n && len(out) > 0; i++ {
		out = appendClipEdge(nil, out, c[i], c[(i+1)%n])
	}
	if len(out) < 3 {
		return nil
	}
	return out
}

// appendClipEdge appends the part of pg on the left of the directed
// line a→b to dst and returns the extended slice. The edge vector b−a
// is taken once per edge rather than once per vertex; every
// orientation test and crossing point is otherwise computed with
// Orient's and the crossing formula's exact operations, in their
// order, so the output is bit-identical to evaluating them afresh.
func appendClipEdge(dst Polygon, pg Polygon, a, b Point) Polygon {
	n := len(pg)
	if n == 0 {
		return dst
	}
	d := b.Sub(a)
	prev := pg[n-1]
	prevIn := orientDir(a, d, prev) >= 0
	for _, cur := range pg {
		curIn := orientDir(a, d, cur) >= 0
		if curIn != prevIn {
			if p, ok := lineSegCross(a, d, prev, cur); ok {
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

// orientDir is Orient(a, a+d, c) for the edge vector d = b−a already
// taken: the same products and difference, in the same order.
func orientDir(a, d, c Point) float64 {
	return d.X*(c.Y-a.Y) - d.Y*(c.X-a.X)
}

// lineSegCross intersects the infinite line through a with direction d
// (an edge b−a) with the segment [p,q].
func lineSegCross(a, d, p, q Point) (Point, bool) {
	e := q.Sub(p)
	denom := d.Cross(e)
	if denom == 0 {
		return Point{}, false
	}
	t := p.Sub(a).Cross(d) / denom // parameter along [p,q]
	return p.Add(e.Scale(clamp01(t))), true
}

// clamp01 returns math.Max(0, math.Min(1, t)) bit for bit — -0 becomes
// +0 and NaN stays NaN — without the two calls, which do not inline.
func clamp01(t float64) float64 {
	switch {
	case t > 1:
		return 1
	case t > 0:
		return t
	case t <= 0:
		return 0
	}
	return t // NaN
}

// IntersectionArea returns the area of the overlap between two simple
// polygons. When the clip polygon is convex the Sutherland–Hodgman fast
// path is used directly; otherwise the clip polygon is triangulated by
// ear clipping and the per-triangle clip areas are summed (triangles
// are convex, so each term is exact, and a triangulation partitions the
// polygon, so the sum is exact too).
func IntersectionArea(subject, clip Polygon) float64 {
	if len(subject) < 3 || len(clip) < 3 {
		return 0
	}
	if !subject.BBox().Intersects(clip.BBox()) {
		return 0
	}
	if clip.IsConvex() {
		return ClipConvex(subject, clip).Area()
	}
	if subject.IsConvex() {
		return ClipConvex(clip, subject).Area()
	}
	tris, err := Triangulate(clip)
	if err != nil {
		// Fall back to triangulating the subject instead.
		tris, err = Triangulate(subject)
		if err != nil {
			return 0
		}
		var total float64
		for _, t := range tris {
			total += ClipConvex(clip, t).Area()
		}
		return total
	}
	var total float64
	sbb := subject.BBox()
	for _, t := range tris {
		if !t.BBox().Intersects(sbb) {
			continue
		}
		total += ClipConvex(subject, t).Area()
	}
	return total
}

// Intersection returns the clipped polygon for a convex clip polygon,
// or nil when there is no overlap. For non-convex clips use
// IntersectionArea, which is well-defined without multi-polygon
// support.
func Intersection(subject, clip Polygon) Polygon {
	if !clip.IsConvex() {
		if subject.IsConvex() {
			subject, clip = clip, subject
		} else {
			return nil
		}
	}
	return ClipConvex(subject, clip)
}

// HalfPlaneClip keeps the part of pg with n·x <= c, where n is the
// outward normal of the half-plane boundary. It is the primitive used
// to carve Voronoi cells. The polygon must be CCW; the result is CCW.
func HalfPlaneClip(pg Polygon, n Point, c float64) Polygon {
	// Points satisfying n·x <= c are "inside". Build a directed line so
	// inside is on its left: direction t = (-n.Y, n.X) rotated so that
	// the left side has n·x < c.
	if len(pg) == 0 {
		return nil
	}
	var out Polygon
	prev := pg[len(pg)-1]
	prevIn := n.Dot(prev) <= c
	for _, cur := range pg {
		curIn := n.Dot(cur) <= c
		if curIn != prevIn {
			// Interpolate crossing point on [prev, cur].
			fp := n.Dot(prev) - c
			fc := n.Dot(cur) - c
			t := fp / (fp - fc)
			out = append(out, prev.Add(cur.Sub(prev).Scale(t)))
		}
		if curIn {
			out = append(out, cur)
		}
		prev, prevIn = cur, curIn
	}
	if len(out) < 3 {
		return nil
	}
	return out
}
