package geom

import "fmt"

// HoledPolygon is a simple polygon with zero or more holes — the shape
// of a county that completely surrounds an independent city. Holes must
// lie strictly inside the outer ring and be mutually disjoint.
type HoledPolygon struct {
	Outer Polygon
	Holes []Polygon
}

// Solid wraps a hole-free polygon.
func Solid(pg Polygon) HoledPolygon { return HoledPolygon{Outer: pg} }

// Area returns the outer area minus the hole areas.
func (hp HoledPolygon) Area() float64 {
	a := hp.Outer.Area()
	for _, h := range hp.Holes {
		a -= h.Area()
	}
	return a
}

// BBox returns the outer ring's bounding box.
func (hp HoledPolygon) BBox() BBox { return hp.Outer.BBox() }

// Contains reports whether p lies in the polygon: inside the outer ring
// and not strictly inside any hole (hole boundaries belong to the
// polygon, matching the half-open partition convention where the
// surrounded unit owns its interior and the boundary is shared).
func (hp HoledPolygon) Contains(p Point) bool {
	if !hp.Outer.Contains(p) {
		return false
	}
	for _, h := range hp.Holes {
		if h.Contains(p) && !onBoundary(h, p) {
			return false
		}
	}
	return true
}

func onBoundary(pg Polygon, p Point) bool {
	n := len(pg)
	for i := 0; i < n; i++ {
		if onSegment(p, pg[i], pg[(i+1)%n]) {
			return true
		}
	}
	return false
}

// Validate checks ring validity, hole containment and hole
// disjointness.
func (hp HoledPolygon) Validate() error {
	if err := hp.Outer.Validate(); err != nil {
		return fmt.Errorf("geom: outer ring: %w", err)
	}
	outerArea := hp.Outer.Area()
	for i, h := range hp.Holes {
		if err := h.Validate(); err != nil {
			return fmt.Errorf("geom: hole %d: %w", i, err)
		}
		// A hole must lie inside the outer ring: its overlap with the
		// outer ring must equal its own area.
		if ov := IntersectionArea(h, hp.Outer); ov < h.Area()*(1-1e-9) {
			return fmt.Errorf("geom: hole %d extends outside the outer ring", i)
		}
		if h.Area() >= outerArea {
			return fmt.Errorf("geom: hole %d as large as the outer ring", i)
		}
	}
	for i := 0; i < len(hp.Holes); i++ {
		for j := i + 1; j < len(hp.Holes); j++ {
			if ov := IntersectionArea(hp.Holes[i], hp.Holes[j]); ov > 1e-12*(1+hp.Holes[i].Area()) {
				return fmt.Errorf("geom: holes %d and %d overlap", i, j)
			}
		}
	}
	return nil
}

// Clone deep-copies the holed polygon.
func (hp HoledPolygon) Clone() HoledPolygon {
	out := HoledPolygon{Outer: hp.Outer.Clone()}
	for _, h := range hp.Holes {
		out.Holes = append(out.Holes, h.Clone())
	}
	return out
}

// HoledIntersectionArea returns the exact overlap area of two holed
// polygons by inclusion–exclusion over their rings:
//
//	|A∩B| = |Oa∩Ob| − Σ|Oa∩hb| − Σ|ha∩Ob| + ΣΣ|ha∩hb|
//
// which follows from expanding the indicator product (holes are inside
// their outers and mutually disjoint). Every term is zero when the
// outer bounding boxes miss, and IntersectionArea checks that first.
func HoledIntersectionArea(a, b HoledPolygon) float64 {
	total := IntersectionArea(a.Outer, b.Outer)
	for _, hb := range b.Holes {
		total -= IntersectionArea(a.Outer, hb)
	}
	for _, ha := range a.Holes {
		total -= IntersectionArea(ha, b.Outer)
		for _, hb := range b.Holes {
			total += IntersectionArea(ha, hb)
		}
	}
	if total < 0 {
		total = 0 // guard against rounding on tangent rings
	}
	return total
}
