// Package partition defines the dimension-agnostic unit-system
// abstraction of §2: a universe Ω partitioned into disjoint units, in
// 1-D (intervals), 2-D (polygon feature layers) or n-D (boxes). It
// computes the two geometric products GeoAlign's pipeline needs from a
// pair of unit systems over the same universe:
//
//   - the area/length/volume disaggregation matrix (the "measure" of
//     every source∩target intersection unit), which is the areal
//     weighting method's reference, and
//   - point location, used to aggregate individual-level point datasets
//     into source×target intersection counts (their disaggregation
//     matrices).
package partition

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"geoalign/internal/geom"
	"geoalign/internal/interval"
	"geoalign/internal/ndbox"
	"geoalign/internal/rtree"
	"geoalign/internal/sparse"
)

// preprocWorkers returns the preprocessing worker count (MeasureDM row
// fills, the dual-tree join, PointDM sharding): runtime.GOMAXPROCS(0).
func preprocWorkers() int {
	return runtime.GOMAXPROCS(0)
}

// bruteJoin forces MeasureDM back onto the pre-dual-tree pairing (one
// R-tree Search per source row, uncached geometry kernels). Test-only:
// it exists so equivalence tests and benchmarks can compare the two
// paths; it is not part of the supported API surface.
var bruteJoin atomic.Bool

// UseBruteJoin toggles the test-only brute pairing path. See bruteJoin.
func UseBruteJoin(on bool) { bruteJoin.Store(on) }

// System is a unit system: a finite set of disjoint units partitioning
// a universe, with just enough behaviour for crosswalk preprocessing.
type System interface {
	// Len returns the number of units.
	Len() int
	// Dim returns the spatial dimensionality (1, 2, or n).
	Dim() int
	// Locate returns the index of the unit containing the point
	// (length-Dim coordinates), or -1 when outside the universe.
	Locate(pt []float64) int
	// Measure returns the size (length/area/volume) of unit i.
	Measure(i int) float64
}

// MeasureDM computes the disaggregation matrix of the Lebesgue measure
// between two unit systems of the same kind: entry (i, j) is the
// measure of source unit i ∩ target unit j. It dispatches on the
// concrete types; mixing kinds or dimensions is an error.
func MeasureDM(src, tgt System) (*sparse.CSR, error) {
	switch s := src.(type) {
	case *PolygonSystem:
		t, ok := tgt.(*PolygonSystem)
		if !ok {
			return nil, fmt.Errorf("partition: cannot intersect %T with %T", src, tgt)
		}
		return areaMeasureDM(s, t), nil
	case *IntervalSystem:
		t, ok := tgt.(*IntervalSystem)
		if !ok {
			return nil, fmt.Errorf("partition: cannot intersect %T with %T", src, tgt)
		}
		return intervalMeasureDM(s, t), nil
	case *BoxSystem:
		t, ok := tgt.(*BoxSystem)
		if !ok {
			return nil, fmt.Errorf("partition: cannot intersect %T with %T", src, tgt)
		}
		return boxMeasureDM(s, t)
	default:
		return nil, fmt.Errorf("partition: unsupported system type %T", src)
	}
}

// pointChunk is the number of points one PointDM shard covers. Chunking
// is by position, not by worker, so the merged entry sequence is
// independent of the worker count and schedule.
const pointChunk = 2048

// pointShard is one contiguous chunk's located points.
type pointShard struct {
	r, c    []int
	v       []float64
	dropped float64
}

// PointDM aggregates weighted points into a source×target count
// disaggregation matrix: each point is located in both systems and its
// weight added to the corresponding cell. Points outside either system
// are counted in the returned dropped total (the paper's real datasets
// have records that geocode outside the universe too). The two systems
// must share a dimensionality.
//
// Location runs in parallel over fixed-position point chunks; the
// per-chunk shards are merged in chunk order, so the result (matrix and
// dropped total) is deterministic and independent of the worker count.
func PointDM(src, tgt System, pts [][]float64, weights []float64) (dm *sparse.CSR, dropped float64, err error) {
	if src.Dim() != tgt.Dim() {
		return nil, 0, fmt.Errorf("partition: source is %d-D, target is %d-D", src.Dim(), tgt.Dim())
	}
	if weights != nil && len(weights) != len(pts) {
		return nil, 0, fmt.Errorf("partition: %d points but %d weights", len(pts), len(weights))
	}
	nChunks := (len(pts) + pointChunk - 1) / pointChunk
	workers := preprocWorkers()
	if workers > nChunks {
		workers = nChunks
	}
	fillShard := func(sh *pointShard, lo, hi int) {
		for n := lo; n < hi; n++ {
			w := 1.0
			if weights != nil {
				w = weights[n]
			}
			i := src.Locate(pts[n])
			j := tgt.Locate(pts[n])
			if i < 0 || j < 0 {
				sh.dropped += w
				continue
			}
			sh.r = append(sh.r, i)
			sh.c = append(sh.c, j)
			sh.v = append(sh.v, w)
		}
	}
	shards := make([]pointShard, nChunks)
	if workers <= 1 {
		for k := 0; k < nChunks; k++ {
			fillShard(&shards[k], k*pointChunk, minInt((k+1)*pointChunk, len(pts)))
		}
	} else {
		var next int64 = -1
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					k := int(atomic.AddInt64(&next, 1))
					if k >= nChunks {
						return
					}
					fillShard(&shards[k], k*pointChunk, minInt((k+1)*pointChunk, len(pts)))
				}
			}()
		}
		wg.Wait()
	}
	coo := sparse.NewCOO(src.Len(), tgt.Len())
	for k := range shards {
		sh := &shards[k]
		for t, i := range sh.r {
			coo.Add(i, sh.c[t], sh.v[t])
		}
		dropped += sh.dropped
	}
	return coo.ToCSR(), dropped, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// --- 2-D polygon systems ---

// PolygonSystem is a 2-D unit system whose units are one or more
// disjoint parts, each a simple polygon with zero or more holes: plain
// polygon layers, units with islands or exclaves, and the "county
// surrounding an independent city" topology, where the city is its own
// unit filling the county's hole. Parts are flattened in unit order,
// prepared once, and indexed by one R-tree. A Diagram-style nearest
// locator can be plugged in for Voronoi layers, where point location by
// nearest seed is faster and numerically exact on cell boundaries.
type PolygonSystem struct {
	Names    []string                    // optional; len 0 or Len()
	parts    []geom.PreparedHoledPolygon // all parts, flattened in unit order
	partUnit []int                       // parts[k] belongs to unit partUnit[k]
	tree     *rtree.Tree                 // over parts
	areas    []float64                   // per unit, holes subtracted
	nested   bool                        // some part has a hole: Locate picks the innermost unit
	locator  func(geom.Point) int        // optional override (e.g. Voronoi nearest)
}

// NewPolygonSystem indexes simple polygons as a unit system. Names may
// be nil. The polygons are assumed disjoint (a partition); that
// invariant is the generator's responsibility and is validated in
// tests, not on every construction.
func NewPolygonSystem(units []geom.Polygon, names []string) (*PolygonSystem, error) {
	return newPolygonSystem(len(units), names, func(i int, parts []geom.HoledPolygon) ([]geom.HoledPolygon, error) {
		u := units[i]
		if len(u) < 3 {
			return nil, fmt.Errorf("partition: unit %d is degenerate (%d vertices)", i, len(u))
		}
		if k := u.NonFinite(); k >= 0 {
			return nil, fmt.Errorf("partition: unit %d vertex %d is not finite (%v)", i, k, u[k])
		}
		return append(parts, geom.Solid(u)), nil
	})
}

// NewMultiPolygonSystem indexes units with one or more disjoint parts
// (island counties, exclaves). Names may be nil.
func NewMultiPolygonSystem(units []geom.MultiPolygon, names []string) (*PolygonSystem, error) {
	return newPolygonSystem(len(units), names, func(u int, parts []geom.HoledPolygon) ([]geom.HoledPolygon, error) {
		if len(units[u]) == 0 {
			return nil, fmt.Errorf("partition: unit %d has no parts", u)
		}
		for p, pg := range units[u] {
			if len(pg) < 3 {
				return nil, fmt.Errorf("partition: unit %d part %d is degenerate", u, p)
			}
			if k := pg.NonFinite(); k >= 0 {
				return nil, fmt.Errorf("partition: unit %d part %d vertex %d is not finite (%v)", u, p, k, pg[k])
			}
			parts = append(parts, geom.Solid(pg))
		}
		return parts, nil
	})
}

// NewHoledPolygonSystem indexes units that may have holes. Names may be
// nil.
func NewHoledPolygonSystem(units []geom.HoledPolygon, names []string) (*PolygonSystem, error) {
	return newPolygonSystem(len(units), names, func(i int, parts []geom.HoledPolygon) ([]geom.HoledPolygon, error) {
		u := units[i]
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
		return append(parts, u), nil
	})
}

// newPolygonSystem builds a system of n units; unitParts validates
// unit u and appends its parts to the given slice.
func newPolygonSystem(n int, names []string, unitParts func(u int, parts []geom.HoledPolygon) ([]geom.HoledPolygon, error)) (*PolygonSystem, error) {
	if n == 0 {
		return nil, fmt.Errorf("partition: no units")
	}
	if names != nil && len(names) != n {
		return nil, fmt.Errorf("partition: %d names for %d units", len(names), n)
	}
	parts := make([]geom.HoledPolygon, 0, n)
	s := &PolygonSystem{Names: names, partUnit: make([]int, 0, n), areas: make([]float64, n)}
	for u := 0; u < n; u++ {
		var err error
		first := len(parts)
		if parts, err = unitParts(u, parts); err != nil {
			return nil, err
		}
		for _, hp := range parts[first:] {
			s.partUnit = append(s.partUnit, u)
			s.areas[u] += hp.Area()
			s.nested = s.nested || len(hp.Holes) > 0
		}
	}
	s.parts = make([]geom.PreparedHoledPolygon, len(parts))
	entries := make([]rtree.Entry, len(parts))
	for k, hp := range parts {
		s.parts[k].Prepare(hp)
		entries[k] = rtree.Entry{Box: s.parts[k].BBox(), ID: k}
	}
	s.tree = rtree.New(entries)
	return s, nil
}

// SetLocator installs a custom point locator (unit index or -1), such
// as a Voronoi nearest-seed lookup.
func (s *PolygonSystem) SetLocator(fn func(geom.Point) int) { s.locator = fn }

// Len returns the number of units.
func (s *PolygonSystem) Len() int { return len(s.areas) }

// Dim returns 2.
func (s *PolygonSystem) Dim() int { return 2 }

// Measure returns the (hole-subtracted) area of unit i.
func (s *PolygonSystem) Measure(i int) float64 { return s.areas[i] }

// Locate returns the unit containing (pt[0], pt[1]), or -1.
func (s *PolygonSystem) Locate(pt []float64) int {
	if len(pt) != 2 {
		return -1
	}
	return s.LocatePoint(geom.Point{X: pt[0], Y: pt[1]})
}

// LocatePoint is Locate with a geom.Point argument. Without holes the
// unit of the first part found containing p wins. When some part has a
// hole, units may nest (a city filling a county's hole), so every
// candidate is checked and the smallest-area unit containing p wins:
// the city beats the surrounding county.
func (s *PolygonSystem) LocatePoint(p geom.Point) int {
	if s.locator != nil {
		return s.locator(p)
	}
	best, bestArea := -1, 0.0
	s.tree.Visit(geom.BBox{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}, func(e rtree.Entry) bool {
		if !s.parts[e.ID].Contains(p) {
			return true
		}
		u := s.partUnit[e.ID]
		if best < 0 || s.areas[u] < bestArea {
			best, bestArea = u, s.areas[u]
		}
		return s.nested
	})
	return best
}

// part returns part k's CCW rings as a HoledPolygon, for the uncached
// kernels of the brute path.
func (s *PolygonSystem) part(k int) geom.HoledPolygon {
	p := &s.parts[k]
	hp := geom.HoledPolygon{Outer: p.Outer.Ring()}
	for i := range p.Holes {
		hp.Holes = append(hp.Holes, p.Holes[i].Ring())
	}
	return hp
}

// areaMeasureDM computes pairwise intersection areas at the part level
// and accumulates them per unit pair. Candidate part pairs come from a
// parallel dual-tree join of the two R-trees; each pair's area is
// computed by the prepared hole-aware kernel with a per-worker scratch
// arena; target parts are folded to their units and rows merged in
// part order, so the result is deterministic. The test-only brute path
// issues one R-tree query per source part with the uncached kernel
// instead.
func areaMeasureDM(src, tgt *PolygonSystem) *sparse.CSR {
	var rows []rowEntries
	if bruteJoin.Load() {
		rows = parallelRows(len(src.parts), func(pi int, add func(j int, v float64)) {
			a := src.part(pi)
			for _, qj := range tgt.tree.Search(a.BBox(), nil) {
				if v := geom.HoledIntersectionArea(a, tgt.part(qj)); v > 0 {
					add(tgt.partUnit[qj], v)
				}
			}
		})
	} else {
		rows = joinRows(src.tree, tgt.tree, len(src.parts), func(sc *geom.ClipScratch, pi, qj int) float64 {
			return sc.PreparedHoledIntersectionArea(&src.parts[pi], &tgt.parts[qj])
		})
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

// rowEntries is one source part's crosswalk row under construction.
type rowEntries struct {
	cols []int
	vals []float64
}

// joinRows enumerates every bbox-overlapping (source row, candidate)
// pair with a parallel dual-tree join and evaluates the pair measure
// with a per-worker geometry scratch arena. The join guarantees one
// worker owns all pairs of a given source row, so the per-row appends
// are race-free without locks, and the caller merges rows in order —
// the result is deterministic regardless of worker count or schedule.
// Pairs with non-positive measure are dropped, matching the brute path.
func joinRows(a, b *rtree.Tree, nRows int, pair func(sc *geom.ClipScratch, i, j int) float64) []rowEntries {
	rows := make([]rowEntries, nRows)
	workers := preprocWorkers()
	scratch := make([]geom.ClipScratch, workers)
	rtree.JoinParallel(a, b, workers, func(w, i, j int) {
		if v := pair(&scratch[w], i, j); v > 0 {
			rows[i].cols = append(rows[i].cols, j)
			rows[i].vals = append(rows[i].vals, v)
		}
	})
	return rows
}

// parallelRows fans the per-row computation out over the preprocessing
// workers. fill must only touch row i through the provided add
// callback.
func parallelRows(n int, fill func(i int, add func(j int, v float64))) []rowEntries {
	rows := make([]rowEntries, n)
	workers := preprocWorkers()
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				fill(i, func(j int, v float64) {
					rows[i].cols = append(rows[i].cols, j)
					rows[i].vals = append(rows[i].vals, v)
				})
			}
		}()
	}
	wg.Wait()
	return rows
}

// --- 1-D interval systems ---

// IntervalSystem adapts interval.Partition to the System interface.
type IntervalSystem struct {
	P *interval.Partition
}

// NewIntervalSystem wraps a 1-D partition.
func NewIntervalSystem(p *interval.Partition) *IntervalSystem { return &IntervalSystem{P: p} }

// Len returns the number of bins.
func (s *IntervalSystem) Len() int { return s.P.Len() }

// Dim returns 1.
func (s *IntervalSystem) Dim() int { return 1 }

// Measure returns the length of bin i.
func (s *IntervalSystem) Measure(i int) float64 { return s.P.Units[i].Length() }

// Locate returns the bin containing pt[0], or -1.
func (s *IntervalSystem) Locate(pt []float64) int {
	if len(pt) != 1 {
		return -1
	}
	return s.P.Locate(pt[0])
}

func intervalMeasureDM(src, tgt *IntervalSystem) *sparse.CSR {
	// The sparse sweep fills the COO directly: no dense |p|×|q| matrix.
	coo := sparse.NewCOO(src.Len(), tgt.Len())
	interval.Overlaps(src.P, tgt.P, coo.Add)
	return coo.ToCSR()
}

// --- n-D box systems ---

// BoxSystem adapts ndbox.Partition to the System interface.
type BoxSystem struct {
	P *ndbox.Partition
}

// NewBoxSystem wraps an n-D box partition.
func NewBoxSystem(p *ndbox.Partition) *BoxSystem { return &BoxSystem{P: p} }

// Len returns the number of boxes.
func (s *BoxSystem) Len() int { return s.P.Len() }

// Dim returns the box dimensionality.
func (s *BoxSystem) Dim() int { return s.P.Dim() }

// Measure returns the volume of box i.
func (s *BoxSystem) Measure(i int) float64 { return s.P.Boxes[i].Volume() }

// Locate returns the box containing pt, or -1.
func (s *BoxSystem) Locate(pt []float64) int { return s.P.Locate(pt) }

func boxMeasureDM(src, tgt *BoxSystem) (*sparse.CSR, error) {
	m, err := ndbox.OverlapMatrix(src.P, tgt.P)
	if err != nil {
		return nil, err
	}
	coo := sparse.NewCOO(src.Len(), tgt.Len())
	for i, row := range m {
		for j, v := range row {
			if v > 0 {
				coo.Add(i, j, v)
			}
		}
	}
	return coo.ToCSR(), nil
}
