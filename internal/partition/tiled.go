package partition

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"

	"geoalign/internal/geom"
	"geoalign/internal/rtree"
	"geoalign/internal/sparse"
)

// TileStream is a re-scannable stream of multipolygon records — the
// out-of-core counterpart of a materialized []geom.MultiPolygon layer.
// Scan must be callable multiple times and yield the identical record
// sequence each time (the tiled build scans twice: once to size the
// tile grid, once to bucket). Record order defines unit indices, so it
// must match the order the corresponding in-memory system would be
// built with.
type TileStream interface {
	Scan(fn func(parts geom.MultiPolygon) error) error
}

// SliceStream adapts an in-memory layer to TileStream.
type SliceStream []geom.MultiPolygon

// Scan yields the records in slice order.
func (s SliceStream) Scan(fn func(parts geom.MultiPolygon) error) error {
	for _, mp := range s {
		if err := fn(mp); err != nil {
			return err
		}
	}
	return nil
}

// TiledOptions tunes the out-of-core crosswalk build.
type TiledOptions struct {
	// TileCols/TileRows fix the tile grid; when either is zero the
	// grid is sized from MemBudget (or a 64 MiB per-tile default).
	TileCols, TileRows int
	// MemBudget is the approximate peak bytes the build may hold in
	// bucketed geometry. Buckets beyond half the budget spill to a
	// temporary file; the other half is headroom for the per-tile
	// join working sets. Zero disables spilling (everything stays in
	// memory, as if the budget were infinite).
	MemBudget int64
	// Workers caps the tile-join parallelism: that many tiles are
	// joined side by side, each on one goroutine. 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// SpillDir is where the spill file is created ("" = os.TempDir()).
	SpillDir string
	// Logf, when non-nil, receives progress lines. It may be called
	// concurrently from tile workers and must be safe for that.
	Logf func(format string, args ...any)
}

// TiledStats reports what a tiled build did.
type TiledStats struct {
	SourceRecords, TargetRecords int
	SourceParts, TargetParts     int
	TileCols, TileRows           int
	SpilledBytes                 int64 // geometry bytes written to the spill file
	PeakBucketBytes              int64 // max bucketed bytes resident at once
	PairsEvaluated               int64 // part pairs run through the clip kernel
}

// tileGrid maps coordinates to tile indices. Tiles are half-open in
// both axes with the last row/column closed, implemented by clamping.
type tileGrid struct {
	minX, minY float64
	tileW      float64
	tileH      float64
	cols, rows int
}

func (g *tileGrid) ix(x float64) int {
	if g.tileW <= 0 {
		return 0
	}
	i := int((x - g.minX) / g.tileW)
	if i < 0 {
		i = 0
	}
	if i >= g.cols {
		i = g.cols - 1
	}
	return i
}

func (g *tileGrid) iy(y float64) int {
	if g.tileH <= 0 {
		return 0
	}
	i := int((y - g.minY) / g.tileH)
	if i < 0 {
		i = 0
	}
	if i >= g.rows {
		i = g.rows - 1
	}
	return i
}

// span is one spilled byte range of a tile bucket.
type span struct {
	off int64
	n   int
}

// tileBucket accumulates one tile's encoded parts for one layer. The
// logical content is the concatenation of the spilled spans (in spill
// order) followed by mem — appends are strictly in scan order, so the
// reassembled sequence is identical whether or not spilling happened.
type tileBucket struct {
	mem  []byte
	segs []span
}

// streamInfo is what the sizing pass learns about a layer.
type streamInfo struct {
	records int
	parts   int
	points  int64
	bbox    geom.BBox
}

func scanInfo(s TileStream) (streamInfo, error) {
	info := streamInfo{bbox: geom.EmptyBBox()}
	err := s.Scan(func(mp geom.MultiPolygon) error {
		if len(mp) == 0 {
			return fmt.Errorf("partition: record %d has no parts", info.records)
		}
		for p, pg := range mp {
			if len(pg) < 3 {
				return fmt.Errorf("partition: record %d part %d is degenerate", info.records, p)
			}
			info.parts++
			info.points += int64(len(pg))
			info.bbox = info.bbox.Union(pg.BBox())
		}
		info.records++
		return nil
	})
	return info, err
}

// rawBytes estimates the encoded size of the layer's geometry.
func (i streamInfo) rawBytes() int64 { return 16*i.points + 8*int64(i.parts) }

// tilePart is one decoded bucket entry: a single polygon part tagged
// with the record (unit) index it belongs to.
type tilePart struct {
	rec  int
	box  geom.BBox
	poly geom.Polygon
}

// triplet is one crosswalk contribution: source record × target record
// × intersection area of one part pair.
type triplet struct {
	i, j int
	v    float64
}

// TiledMeasureDM computes the same source×target intersection-area
// disaggregation matrix as MeasureDM over two polygon layers, but
// out-of-core: records stream in twice (a sizing pass, then a
// bucketing pass), parts are bucketed into tiles of the union bounding
// box — spilling buckets to a temporary file once MemBudget is
// exceeded — and each tile runs the prepared-geometry dual-tree join
// independently, in parallel across workers with per-worker clip
// scratches. Peak memory is bounded by the budget plus the output
// triplets, never by the layer size.
//
// Every bbox-intersecting part pair is evaluated exactly once, in the
// unique tile containing the lower-left corner of the pair's bbox
// intersection (the PBSM reference-point rule), by the same
// PreparedIntersectionArea kernel the in-memory path uses — so each
// pair contributes the identical IEEE-754 value. Per-tile results are
// merged in tile order, making the output deterministic for a fixed
// grid regardless of worker count or spilling; across different grids
// only the summation order of multi-part duplicates changes, which is
// why equivalence to MeasureDM is exact on the sparsity pattern and
// ≤1e-9 on values.
func TiledMeasureDM(src, tgt TileStream, opt TiledOptions) (*sparse.CSR, TiledStats, error) {
	var stats TiledStats
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = preprocWorkers()
	}

	// Pass 1: sizes and the union bounding box.
	srcInfo, err := scanInfo(src)
	if err != nil {
		return nil, stats, fmt.Errorf("partition: sizing source layer: %w", err)
	}
	tgtInfo, err := scanInfo(tgt)
	if err != nil {
		return nil, stats, fmt.Errorf("partition: sizing target layer: %w", err)
	}
	if srcInfo.records == 0 || tgtInfo.records == 0 {
		return nil, stats, fmt.Errorf("partition: empty layer (%d source, %d target records)", srcInfo.records, tgtInfo.records)
	}
	stats.SourceRecords, stats.TargetRecords = srcInfo.records, tgtInfo.records
	stats.SourceParts, stats.TargetParts = srcInfo.parts, tgtInfo.parts

	grid := chooseGrid(srcInfo, tgtInfo, opt, workers)
	stats.TileCols, stats.TileRows = grid.cols, grid.rows
	nTiles := grid.cols * grid.rows
	logf("tiled build: %d source + %d target records (%d parts, ~%s geometry), %dx%d tiles, %d workers",
		srcInfo.records, tgtInfo.records, srcInfo.parts+tgtInfo.parts,
		fmtMiB(srcInfo.rawBytes()+tgtInfo.rawBytes()), grid.cols, grid.rows, workers)

	// Pass 2: bucket parts into tiles, spilling over budget.
	bk := &bucketer{
		grid:      grid,
		buckets:   [2][]tileBucket{make([]tileBucket, nTiles), make([]tileBucket, nTiles)},
		threshold: opt.MemBudget / 2,
		spillDir:  opt.SpillDir,
	}
	defer bk.cleanup()
	if err := bk.bucketLayer(0, src, srcInfo.records); err != nil {
		return nil, stats, err
	}
	if err := bk.bucketLayer(1, tgt, tgtInfo.records); err != nil {
		return nil, stats, err
	}
	stats.SpilledBytes = bk.spilled
	stats.PeakBucketBytes = bk.peak
	if bk.spilled > 0 {
		logf("tiled build: spilled %s of tile buckets to disk (budget %s)", fmtMiB(bk.spilled), fmtMiB(opt.MemBudget))
	}

	// Pass 3: join each tile, in parallel, with per-worker scratches.
	results := make([][]triplet, nTiles)
	errs := make([]error, workers)
	var pairs atomic.Int64
	var nextTile atomic.Int64
	var tilesDone atomic.Int64
	nextTile.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var sc geom.ClipScratch
			for {
				t := int(nextTile.Add(1))
				if t >= nTiles {
					return
				}
				tr, n, err := bk.joinTile(t, &sc)
				if err != nil {
					errs[w] = err
					return
				}
				results[t] = tr
				pairs.Add(n)
				if done := tilesDone.Add(1); nTiles >= 16 && done%int64(max(nTiles/8, 1)) == 0 {
					logf("tiled build: %d/%d tiles joined", done, nTiles)
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, stats, err
		}
	}
	stats.PairsEvaluated = pairs.Load()

	// Deterministic merge: tiles in index order, triplets in each
	// tile's join order; COO→CSR sums duplicates per row.
	total := 0
	for _, tr := range results {
		total += len(tr)
	}
	coo := sparse.NewCOOWithCapacity(srcInfo.records, tgtInfo.records, total)
	for _, tr := range results {
		for _, e := range tr {
			coo.Add(e.i, e.j, e.v)
		}
	}
	dm := coo.ToCSR()
	logf("tiled build: %d part pairs evaluated, %d crosswalk entries", stats.PairsEvaluated, dm.NNZ())
	return dm, stats, nil
}

// chooseGrid sizes the tile grid: explicit dimensions win; otherwise
// tiles are sized so roughly 4·workers of them fit in the budget at
// once (half for resident buckets, half for join working sets), with
// the column/row split following the universe aspect ratio.
func chooseGrid(srcInfo, tgtInfo streamInfo, opt TiledOptions, workers int) *tileGrid {
	bbox := srcInfo.bbox.Union(tgtInfo.bbox)
	cols, rows := opt.TileCols, opt.TileRows
	if cols <= 0 || rows <= 0 {
		perTile := int64(64 << 20)
		if opt.MemBudget > 0 {
			perTile = opt.MemBudget / int64(4*workers)
			if perTile < 4<<10 {
				perTile = 4 << 10
			}
		}
		total := srcInfo.rawBytes() + tgtInfo.rawBytes()
		tiles := int(total/perTile) + 1
		if tiles > 4096 {
			tiles = 4096
		}
		w, h := bbox.MaxX-bbox.MinX, bbox.MaxY-bbox.MinY
		aspect := 1.0
		if w > 0 && h > 0 {
			aspect = w / h
		}
		cols = int(math.Round(math.Sqrt(float64(tiles) * aspect)))
		if cols < 1 {
			cols = 1
		}
		rows = (tiles + cols - 1) / cols
		if rows < 1 {
			rows = 1
		}
	}
	return &tileGrid{
		minX: bbox.MinX, minY: bbox.MinY,
		tileW: (bbox.MaxX - bbox.MinX) / float64(cols),
		tileH: (bbox.MaxY - bbox.MinY) / float64(rows),
		cols:  cols, rows: rows,
	}
}

// bucketer owns pass 2 state: the per-tile per-layer buckets, the
// resident-byte accounting and the spill file.
type bucketer struct {
	grid      *tileGrid
	buckets   [2][]tileBucket
	threshold int64 // spill when resident exceeds this; <=0 disables
	spillDir  string

	resident int64
	peak     int64
	spilled  int64
	spillF   *os.File
	spillOff int64
}

func (b *bucketer) cleanup() {
	if b.spillF != nil {
		name := b.spillF.Name()
		b.spillF.Close()
		os.Remove(name)
		b.spillF = nil
	}
}

// bucketLayer scans one layer and appends every part's encoding to the
// buckets of all tiles its bounding box overlaps.
func (b *bucketer) bucketLayer(layer int, s TileStream, wantRecords int) error {
	rec := 0
	err := s.Scan(func(mp geom.MultiPolygon) error {
		for _, pg := range mp {
			box := pg.BBox()
			tx0, tx1 := b.grid.ix(box.MinX), b.grid.ix(box.MaxX)
			ty0, ty1 := b.grid.iy(box.MinY), b.grid.iy(box.MaxY)
			for ty := ty0; ty <= ty1; ty++ {
				for tx := tx0; tx <= tx1; tx++ {
					t := ty*b.grid.cols + tx
					bk := &b.buckets[layer][t]
					before := len(bk.mem)
					bk.mem = appendPart(bk.mem, rec, pg)
					b.resident += int64(len(bk.mem) - before)
				}
			}
		}
		if b.resident > b.peak {
			b.peak = b.resident
		}
		if b.threshold > 0 && b.resident > b.threshold {
			if err := b.spill(); err != nil {
				return err
			}
		}
		rec++
		return nil
	})
	if err != nil {
		return fmt.Errorf("partition: bucketing layer %d: %w", layer, err)
	}
	if rec != wantRecords {
		return fmt.Errorf("partition: layer %d yielded %d records on rescan, %d on sizing pass", layer, rec, wantRecords)
	}
	return nil
}

// spill writes every non-trivial resident bucket to the spill file and
// releases its memory. Per-bucket byte order is preserved: spilled
// spans replay before the in-memory tail, in spill order.
func (b *bucketer) spill() error {
	if b.spillF == nil {
		dir := b.spillDir
		if dir == "" {
			dir = os.TempDir()
		}
		f, err := os.CreateTemp(dir, "geoalign-tilespill-*.tmp")
		if err != nil {
			return fmt.Errorf("partition: creating spill file: %w", err)
		}
		b.spillF = f
	}
	for layer := range b.buckets {
		for t := range b.buckets[layer] {
			bk := &b.buckets[layer][t]
			// Tiny residues stay resident: spilling them would fragment
			// the file without freeing meaningful memory.
			if len(bk.mem) < 4096 && b.resident <= b.threshold {
				continue
			}
			if len(bk.mem) == 0 {
				continue
			}
			n, err := b.spillF.WriteAt(bk.mem, b.spillOff)
			if err != nil {
				return fmt.Errorf("partition: writing spill file: %w", err)
			}
			bk.segs = append(bk.segs, span{off: b.spillOff, n: n})
			b.spillOff += int64(n)
			b.spilled += int64(n)
			b.resident -= int64(len(bk.mem))
			bk.mem = nil
		}
	}
	return nil
}

// loadTile reassembles and decodes one tile's bucket for one layer.
func (b *bucketer) loadTile(layer, t int) ([]tilePart, error) {
	bk := &b.buckets[layer][t]
	size := len(bk.mem)
	for _, sg := range bk.segs {
		size += sg.n
	}
	if size == 0 {
		return nil, nil
	}
	raw := make([]byte, 0, size)
	for _, sg := range bk.segs {
		buf := make([]byte, sg.n)
		if _, err := b.spillF.ReadAt(buf, sg.off); err != nil {
			return nil, fmt.Errorf("partition: reading spill file: %w", err)
		}
		raw = append(raw, buf...)
	}
	raw = append(raw, bk.mem...)
	return decodeParts(raw)
}

// joinTile runs the dual-tree join of one tile's two part sets,
// keeping only pairs the tile owns under the reference-point rule.
func (b *bucketer) joinTile(t int, sc *geom.ClipScratch) ([]triplet, int64, error) {
	srcParts, err := b.loadTile(0, t)
	if err != nil {
		return nil, 0, err
	}
	if len(srcParts) == 0 {
		return nil, 0, nil
	}
	tgtParts, err := b.loadTile(1, t)
	if err != nil {
		return nil, 0, err
	}
	if len(tgtParts) == 0 {
		return nil, 0, nil
	}
	tx, ty := t%b.grid.cols, t/b.grid.cols

	srcPrep := make([]*geom.PreparedPolygon, len(srcParts))
	for k, p := range srcParts {
		srcPrep[k] = geom.NewPreparedPolygon(p.poly)
	}
	tgtPrep := make([]*geom.PreparedPolygon, len(tgtParts))
	for k, p := range tgtParts {
		tgtPrep[k] = geom.NewPreparedPolygon(p.poly)
	}

	var out []triplet
	var pairs int64
	visit := func(a, b2 int) {
		pa, pb := &srcParts[a], &tgtParts[b2]
		// Reference point: the lower-left corner of the bbox
		// intersection. Exactly one tile contains it, and both parts
		// are bucketed there, so the pair is evaluated exactly once
		// across all tiles.
		rx := math.Max(pa.box.MinX, pb.box.MinX)
		ry := math.Max(pa.box.MinY, pb.box.MinY)
		if b.grid.ix(rx) != tx || b.grid.iy(ry) != ty {
			return
		}
		pairs++
		if v := sc.PreparedIntersectionArea(srcPrep[a], tgtPrep[b2]); v > 0 {
			out = append(out, triplet{i: pa.rec, j: pb.rec, v: v})
		}
	}
	// Small tiles skip R-tree construction; the pair set is the same
	// (all bbox-intersecting pairs), only enumeration order differs,
	// and order within a tile is deterministic either way.
	if len(srcParts)*len(tgtParts) <= 1024 {
		for a := range srcParts {
			for b2 := range tgtParts {
				if srcParts[a].box.Intersects(tgtParts[b2].box) {
					visit(a, b2)
				}
			}
		}
		return out, pairs, nil
	}
	aEntries := make([]rtree.Entry, len(srcParts))
	for k, p := range srcParts {
		aEntries[k] = rtree.Entry{Box: p.box, ID: k}
	}
	bEntries := make([]rtree.Entry, len(tgtParts))
	for k, p := range tgtParts {
		bEntries[k] = rtree.Entry{Box: p.box, ID: k}
	}
	rtree.Join(rtree.New(aEntries), rtree.New(bEntries), visit)
	return out, pairs, nil
}

// appendPart encodes one part: record index, vertex count, raw
// float64-bit coordinates — a fixed little-endian layout so spilled and
// resident bytes decode identically.
func appendPart(dst []byte, rec int, pg geom.Polygon) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(rec))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(pg)))
	dst = append(dst, hdr[:]...)
	var w [16]byte
	for _, p := range pg {
		binary.LittleEndian.PutUint64(w[0:8], math.Float64bits(p.X))
		binary.LittleEndian.PutUint64(w[8:16], math.Float64bits(p.Y))
		dst = append(dst, w[:]...)
	}
	return dst
}

// fmtMiB renders a byte count as fractional MiB for progress logs.
func fmtMiB(n int64) string {
	return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
}

// decodeParts parses a bucket's concatenated part encodings.
func decodeParts(raw []byte) ([]tilePart, error) {
	var parts []tilePart
	off := 0
	for off < len(raw) {
		if off+8 > len(raw) {
			return nil, fmt.Errorf("partition: corrupt tile bucket at %d", off)
		}
		rec := int(binary.LittleEndian.Uint32(raw[off : off+4]))
		n := int(binary.LittleEndian.Uint32(raw[off+4 : off+8]))
		off += 8
		if n < 3 || off+16*n > len(raw) {
			return nil, fmt.Errorf("partition: corrupt tile bucket part at %d (%d points)", off, n)
		}
		pg := make(geom.Polygon, n)
		for i := 0; i < n; i++ {
			pg[i].X = math.Float64frombits(binary.LittleEndian.Uint64(raw[off:]))
			pg[i].Y = math.Float64frombits(binary.LittleEndian.Uint64(raw[off+8:]))
			off += 16
		}
		parts = append(parts, tilePart{rec: rec, box: pg.BBox(), poly: pg})
	}
	return parts, nil
}
