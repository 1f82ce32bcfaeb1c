package geom

import "fmt"

// MultiPolygon is a unit made of one or more disjoint simple polygons —
// the shape of real administrative units with islands or exclaves
// (Richmond County is Staten Island plus islets). Parts must be
// mutually disjoint; no holes.
type MultiPolygon []Polygon

// SinglePart wraps a simple polygon as a one-part multipolygon.
func SinglePart(pg Polygon) MultiPolygon { return MultiPolygon{pg} }

// Area returns the summed part areas.
func (mp MultiPolygon) Area() float64 {
	var a float64
	for _, pg := range mp {
		a += pg.Area()
	}
	return a
}

// BBox returns the bounding box over all parts.
func (mp MultiPolygon) BBox() BBox {
	b := EmptyBBox()
	for _, pg := range mp {
		b = b.Union(pg.BBox())
	}
	return b
}

// Contains reports whether p lies in any part.
func (mp MultiPolygon) Contains(p Point) bool {
	for _, pg := range mp {
		if pg.Contains(p) {
			return true
		}
	}
	return false
}

// Centroid returns the area-weighted centroid of the parts.
func (mp MultiPolygon) Centroid() Point {
	var cx, cy, total float64
	for _, pg := range mp {
		a := pg.Area()
		c := pg.Centroid()
		cx += c.X * a
		cy += c.Y * a
		total += a
	}
	if total == 0 {
		if len(mp) > 0 && len(mp[0]) > 0 {
			return mp[0][0]
		}
		return Point{}
	}
	return Point{X: cx / total, Y: cy / total}
}

// Validate checks every part and pairwise part disjointness.
func (mp MultiPolygon) Validate() error {
	if len(mp) == 0 {
		return fmt.Errorf("geom: multipolygon with no parts")
	}
	for i, pg := range mp {
		if err := pg.Validate(); err != nil {
			return fmt.Errorf("geom: part %d: %w", i, err)
		}
	}
	for i := 0; i < len(mp); i++ {
		for j := i + 1; j < len(mp); j++ {
			if ov := IntersectionArea(mp[i], mp[j]); ov > 1e-12*(1+mp[i].Area()) {
				return fmt.Errorf("geom: parts %d and %d overlap by %g", i, j, ov)
			}
		}
	}
	return nil
}

// Clone deep-copies the multipolygon.
func (mp MultiPolygon) Clone() MultiPolygon {
	out := make(MultiPolygon, len(mp))
	for i, pg := range mp {
		out[i] = pg.Clone()
	}
	return out
}
