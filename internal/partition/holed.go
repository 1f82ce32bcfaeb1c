package partition

import (
	"fmt"

	"geoalign/internal/geom"
	"geoalign/internal/rtree"
	"geoalign/internal/sparse"
)

// HoledPolygonSystem is a 2-D unit system whose units may have holes —
// the "county surrounding an independent city" topology, where the
// surrounded city is its own unit occupying the hole. It satisfies
// System and participates in MeasureDM/PointDM alongside the other
// polygon systems.
type HoledPolygonSystem struct {
	Units []geom.HoledPolygon
	Names []string
	tree  *rtree.Tree
	areas []float64
	prep  []*geom.PreparedHoledPolygon // per-unit geometry cache
}

// NewHoledPolygonSystem indexes holed-polygon units. Names may be nil.
func NewHoledPolygonSystem(units []geom.HoledPolygon, names []string) (*HoledPolygonSystem, error) {
	if len(units) == 0 {
		return nil, fmt.Errorf("partition: no units")
	}
	if names != nil && len(names) != len(units) {
		return nil, fmt.Errorf("partition: %d names for %d units", len(names), len(units))
	}
	s := &HoledPolygonSystem{
		Units: units,
		areas: make([]float64, len(units)),
		Names: names,
		prep:  make([]*geom.PreparedHoledPolygon, len(units)),
	}
	entries := make([]rtree.Entry, len(units))
	for i, u := range units {
		if len(u.Outer) < 3 {
			return nil, fmt.Errorf("partition: unit %d has a degenerate outer ring", i)
		}
		if k := u.Outer.NonFinite(); k >= 0 {
			return nil, fmt.Errorf("partition: unit %d outer ring vertex %d is not finite (%v)", i, k, u.Outer[k])
		}
		for h, hole := range u.Holes {
			if k := hole.NonFinite(); k >= 0 {
				return nil, fmt.Errorf("partition: unit %d hole %d vertex %d is not finite (%v)", i, h, k, hole[k])
			}
		}
		s.prep[i] = geom.NewPreparedHoledPolygon(u)
		entries[i] = rtree.Entry{Box: s.prep[i].BBox(), ID: i}
		s.areas[i] = u.Area()
	}
	s.tree = rtree.New(entries)
	return s, nil
}

// Len returns the number of units.
func (s *HoledPolygonSystem) Len() int { return len(s.Units) }

// Dim returns 2.
func (s *HoledPolygonSystem) Dim() int { return 2 }

// Measure returns the (hole-subtracted) area of unit i.
func (s *HoledPolygonSystem) Measure(i int) float64 { return s.areas[i] }

// Locate returns the unit containing (pt[0], pt[1]), or -1. When units
// nest (one unit filling another's hole), the innermost match wins:
// candidates are checked and the one with the smallest area containing
// the point is returned, so the city beats the surrounding county.
func (s *HoledPolygonSystem) Locate(pt []float64) int {
	if len(pt) != 2 {
		return -1
	}
	p := geom.Point{X: pt[0], Y: pt[1]}
	best, bestArea := -1, 0.0
	s.tree.Visit(geom.BBox{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}, func(e rtree.Entry) bool {
		if s.Units[e.ID].Contains(p) {
			if best < 0 || s.areas[e.ID] < bestArea {
				best, bestArea = e.ID, s.areas[e.ID]
			}
		}
		return true
	})
	return best
}

// asHoled adapts other 2-D systems for mixed MeasureDM calls.
func (s *PolygonSystem) asHoled() (*HoledPolygonSystem, error) {
	units := make([]geom.HoledPolygon, len(s.Units))
	for i, pg := range s.Units {
		units[i] = geom.Solid(pg)
	}
	return NewHoledPolygonSystem(units, s.Names)
}

// holedMeasureDM computes pairwise hole-aware intersection areas —
// candidate pairs from the parallel dual-tree join, every
// inclusion–exclusion term from the prepared-geometry caches.
func holedMeasureDM(src, tgt *HoledPolygonSystem) *sparse.CSR {
	if bruteJoin.Load() {
		rows := parallelRows(src.Len(), func(i int, add func(j int, v float64)) {
			su := src.Units[i]
			for _, j := range tgt.tree.Search(su.BBox(), nil) {
				if a := geom.HoledIntersectionArea(su, tgt.Units[j]); a > 0 {
					add(j, a)
				}
			}
		})
		return assembleRows(rows, src.Len(), tgt.Len())
	}
	rows := joinRows(src.tree, tgt.tree, src.Len(), func(sc *geom.ClipScratch, i, j int) float64 {
		return sc.PreparedHoledIntersectionArea(src.prep[i], tgt.prep[j])
	})
	return assembleRows(rows, src.Len(), tgt.Len())
}
