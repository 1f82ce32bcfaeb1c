package partition

import (
	"fmt"

	"geoalign/internal/geom"
	"geoalign/internal/rtree"
	"geoalign/internal/sparse"
)

// MultiPolygonSystem is a 2-D unit system whose units may have several
// disjoint parts (island counties, exclaves). It satisfies System and
// participates in MeasureDM/PointDM alongside PolygonSystem.
type MultiPolygonSystem struct {
	Units []geom.MultiPolygon
	Names []string

	parts    []geom.Polygon          // all parts, flattened
	partUnit []int                   // parts[i] belongs to Units[partUnit[i]]
	partPrep []*geom.PreparedPolygon // per-part geometry cache
	tree     *rtree.Tree             // over parts
	areas    []float64               // per unit
}

// NewMultiPolygonSystem indexes multipolygon units. Names may be nil.
func NewMultiPolygonSystem(units []geom.MultiPolygon, names []string) (*MultiPolygonSystem, error) {
	if len(units) == 0 {
		return nil, fmt.Errorf("partition: no units")
	}
	if names != nil && len(names) != len(units) {
		return nil, fmt.Errorf("partition: %d names for %d units", len(names), len(units))
	}
	s := &MultiPolygonSystem{Units: units, Names: names, areas: make([]float64, len(units))}
	var entries []rtree.Entry
	for u, mp := range units {
		if len(mp) == 0 {
			return nil, fmt.Errorf("partition: unit %d has no parts", u)
		}
		for p, pg := range mp {
			if len(pg) < 3 {
				return nil, fmt.Errorf("partition: unit %d part %d is degenerate", u, p)
			}
			if k := pg.NonFinite(); k >= 0 {
				return nil, fmt.Errorf("partition: unit %d part %d vertex %d is not finite (%v)", u, p, k, pg[k])
			}
			prep := geom.NewPreparedPolygon(pg)
			entries = append(entries, rtree.Entry{Box: prep.BBox(), ID: len(s.parts)})
			s.parts = append(s.parts, pg)
			s.partPrep = append(s.partPrep, prep)
			s.partUnit = append(s.partUnit, u)
		}
		s.areas[u] = mp.Area()
	}
	s.tree = rtree.New(entries)
	return s, nil
}

// Len returns the number of units.
func (s *MultiPolygonSystem) Len() int { return len(s.Units) }

// Dim returns 2.
func (s *MultiPolygonSystem) Dim() int { return 2 }

// Measure returns the total area of unit i.
func (s *MultiPolygonSystem) Measure(i int) float64 { return s.areas[i] }

// Locate returns the unit containing (pt[0], pt[1]), or -1.
func (s *MultiPolygonSystem) Locate(pt []float64) int {
	if len(pt) != 2 {
		return -1
	}
	p := geom.Point{X: pt[0], Y: pt[1]}
	found := -1
	s.tree.Visit(geom.BBox{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}, func(e rtree.Entry) bool {
		if s.parts[e.ID].Contains(p) {
			found = s.partUnit[e.ID]
			return false
		}
		return true
	})
	return found
}

// asMulti adapts a single-part system for mixed MeasureDM calls.
func (s *PolygonSystem) asMulti() (*MultiPolygonSystem, error) {
	units := make([]geom.MultiPolygon, len(s.Units))
	for i, pg := range s.Units {
		units[i] = geom.SinglePart(pg)
	}
	return NewMultiPolygonSystem(units, s.Names)
}

// multiMeasureDM computes pairwise intersection areas at the part level
// — candidate part pairs from the parallel dual-tree join, areas from
// the prepared-geometry kernels — and accumulates them per unit pair.
func multiMeasureDM(src, tgt *MultiPolygonSystem) *sparse.CSR {
	var rows []rowEntries
	if bruteJoin.Load() {
		rows = parallelRows(len(src.parts), func(pi int, add func(j int, v float64)) {
			part := src.parts[pi]
			for _, qj := range tgt.tree.Search(part.BBox(), nil) {
				if a := geom.IntersectionArea(part, tgt.parts[qj]); a > 0 {
					add(tgt.partUnit[qj], a)
				}
			}
		})
	} else {
		rows = joinRows(src.tree, tgt.tree, len(src.parts), func(sc *geom.ClipScratch, pi, qj int) float64 {
			return sc.PreparedIntersectionArea(src.partPrep[pi], tgt.partPrep[qj])
		})
		// joinRows records target part indices; fold them to unit indices
		// in place before the per-unit accumulation below.
		for pi := range rows {
			for k, qj := range rows[pi].cols {
				rows[pi].cols[k] = tgt.partUnit[qj]
			}
		}
	}
	coo := sparse.NewCOO(src.Len(), tgt.Len())
	for pi, r := range rows {
		for k, j := range r.cols {
			coo.Add(src.partUnit[pi], j, r.vals[k])
		}
	}
	return coo.ToCSR()
}
