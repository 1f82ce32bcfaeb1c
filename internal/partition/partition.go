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
		switch t := tgt.(type) {
		case *PolygonSystem:
			return polygonMeasureDM(s, t), nil
		case *MultiPolygonSystem:
			sm, err := s.asMulti()
			if err != nil {
				return nil, err
			}
			return multiMeasureDM(sm, t), nil
		case *HoledPolygonSystem:
			sh, err := s.asHoled()
			if err != nil {
				return nil, err
			}
			return holedMeasureDM(sh, t), nil
		default:
			return nil, fmt.Errorf("partition: cannot intersect %T with %T", src, tgt)
		}
	case *HoledPolygonSystem:
		switch t := tgt.(type) {
		case *HoledPolygonSystem:
			return holedMeasureDM(s, t), nil
		case *PolygonSystem:
			th, err := t.asHoled()
			if err != nil {
				return nil, err
			}
			return holedMeasureDM(s, th), nil
		default:
			return nil, fmt.Errorf("partition: cannot intersect %T with %T", src, tgt)
		}
	case *MultiPolygonSystem:
		switch t := tgt.(type) {
		case *MultiPolygonSystem:
			return multiMeasureDM(s, t), nil
		case *PolygonSystem:
			tm, err := t.asMulti()
			if err != nil {
				return nil, err
			}
			return multiMeasureDM(s, tm), nil
		default:
			return nil, fmt.Errorf("partition: cannot intersect %T with %T", src, tgt)
		}
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

// PolygonSystem is a 2-D unit system backed by simple polygons with an
// R-tree for point location and overlap search. A Diagram-style nearest
// locator can be plugged in for Voronoi layers, where point location by
// nearest seed is faster and numerically exact on cell boundaries.
type PolygonSystem struct {
	Units   []geom.Polygon
	Names   []string // optional; len 0 or Len()
	tree    *rtree.Tree
	areas   []float64
	prep    []*geom.PreparedPolygon // per-unit geometry cache (bbox, convexity, lazy triangulation)
	locator func(geom.Point) int    // optional override (e.g. Voronoi nearest)
}

// NewPolygonSystem indexes the given polygons as a unit system. Names
// may be nil. The polygons are assumed disjoint (a partition); that
// invariant is the generator's responsibility and is validated in
// tests, not on every construction.
func NewPolygonSystem(units []geom.Polygon, names []string) (*PolygonSystem, error) {
	if len(units) == 0 {
		return nil, fmt.Errorf("partition: no units")
	}
	if names != nil && len(names) != len(units) {
		return nil, fmt.Errorf("partition: %d names for %d units", len(names), len(units))
	}
	entries := make([]rtree.Entry, len(units))
	areas := make([]float64, len(units))
	prep := make([]*geom.PreparedPolygon, len(units))
	for i, u := range units {
		if len(u) < 3 {
			return nil, fmt.Errorf("partition: unit %d is degenerate (%d vertices)", i, len(u))
		}
		if k := u.NonFinite(); k >= 0 {
			return nil, fmt.Errorf("partition: unit %d vertex %d is not finite (%v)", i, k, u[k])
		}
		prep[i] = geom.NewPreparedPolygon(u)
		entries[i] = rtree.Entry{Box: prep[i].BBox(), ID: i}
		areas[i] = u.Area()
	}
	return &PolygonSystem{
		Units: units,
		Names: names,
		tree:  rtree.New(entries),
		areas: areas,
		prep:  prep,
	}, nil
}

// SetLocator installs a custom point locator (unit index or -1), such
// as a Voronoi nearest-seed lookup.
func (s *PolygonSystem) SetLocator(fn func(geom.Point) int) { s.locator = fn }

// Len returns the number of units.
func (s *PolygonSystem) Len() int { return len(s.Units) }

// Dim returns 2.
func (s *PolygonSystem) Dim() int { return 2 }

// Measure returns the area of unit i.
func (s *PolygonSystem) Measure(i int) float64 { return s.areas[i] }

// Locate returns the unit containing (pt[0], pt[1]), or -1.
func (s *PolygonSystem) Locate(pt []float64) int {
	if len(pt) != 2 {
		return -1
	}
	p := geom.Point{X: pt[0], Y: pt[1]}
	return s.LocatePoint(p)
}

// LocatePoint is Locate with a geom.Point argument.
func (s *PolygonSystem) LocatePoint(p geom.Point) int {
	if s.locator != nil {
		return s.locator(p)
	}
	found := -1
	s.tree.Visit(geom.BBox{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}, func(e rtree.Entry) bool {
		if s.Units[e.ID].Contains(p) {
			found = e.ID
			return false
		}
		return true
	})
	return found
}

// Overlapping appends to dst the indices of units whose bounding boxes
// intersect the query box.
func (s *PolygonSystem) Overlapping(b geom.BBox, dst []int) []int {
	return s.tree.Search(b, dst)
}

// polygonMeasureDM computes pairwise intersection areas. Candidate
// pairs come from a parallel dual-tree join of the two R-trees; each
// pair's area is computed by the prepared-geometry kernel with a
// per-worker scratch arena, and rows are merged in row order, so the
// result is deterministic. The test-only brute path issues one R-tree
// query per source row with the uncached kernels instead.
func polygonMeasureDM(src, tgt *PolygonSystem) *sparse.CSR {
	if bruteJoin.Load() {
		rows := parallelRows(src.Len(), func(i int, add func(j int, v float64)) {
			su := src.Units[i]
			for _, j := range tgt.Overlapping(su.BBox(), nil) {
				if a := geom.IntersectionArea(su, tgt.Units[j]); a > 0 {
					add(j, a)
				}
			}
		})
		return assembleRows(rows, src.Len(), tgt.Len())
	}
	rows := joinRows(src.tree, tgt.tree, src.Len(), func(sc *geom.ClipScratch, i, j int) float64 {
		return sc.PreparedIntersectionArea(src.prep[i], tgt.prep[j])
	})
	return assembleRows(rows, src.Len(), tgt.Len())
}

// rowEntries is one source unit's crosswalk row under construction.
type rowEntries struct {
	cols []int
	vals []float64
}

// joinRows enumerates every bbox-overlapping (source row, candidate)
// pair with a parallel dual-tree join and evaluates the pair measure
// with a per-worker geometry scratch arena. The join guarantees one
// worker owns all pairs of a given source row, so the per-row appends
// are race-free without locks, and assembleRows merges rows in order —
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

// assembleRows turns per-row entries into a CSR matrix, in row order.
func assembleRows(rows []rowEntries, nr, nc int) *sparse.CSR {
	coo := sparse.NewCOO(nr, nc)
	for i, r := range rows {
		for k, j := range r.cols {
			coo.Add(i, j, r.vals[k])
		}
	}
	return coo.ToCSR()
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
