package partition

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"os"
	"slices"
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
	// runtime.GOMAXPROCS(0). A tile is never split between workers,
	// so a grid with fewer tiles than workers (an explicit 1×1 grid,
	// say) leaves the surplus workers idle.
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
	PeakHeldBytes                int64 // max bucket buffer capacity held at once, pooled buffers included
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
// order) followed by the resident chunks — appends are strictly in
// scan order, so the reassembled sequence is identical whether or not
// spilling happened. A part never straddles two chunks: one that does
// not fit in the last chunk's room starts the next.
type tileBucket struct {
	chunks [][]byte
	n      int // resident bytes, the chunks' total length
	segs   []span
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
			if k := pg.NonFinite(); k >= 0 {
				return fmt.Errorf("partition: record %d part %d vertex %d is not finite (%v)", info.records, p, k, pg[k])
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

// rawBytes is the encoded size of the layer's geometry, each part
// counted once: an 8-byte record header plus 16 bytes per vertex.
func (i streamInfo) rawBytes() int64 { return 16*i.points + partHeader*int64(i.parts) }

// tilePart is one decoded bucket entry: a single polygon part tagged
// with the record (unit) index it belongs to, and its bounding box,
// taken in the decode loop.
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

// tripletChunkShift sets a tripletLog chunk's length: 4096 triplets,
// 96 KiB.
const tripletChunkShift = 12

// tripletLog is one join worker's triplets, across every tile it
// joins, in join order. It is stored in fixed chunks rather than one
// growing slice, so it never copies what it already holds; only the
// first chunk grows by append, which keeps small builds small.
type tripletLog struct {
	chunks [][]triplet
	n      int
}

func (l *tripletLog) add(e triplet) {
	c := l.n >> tripletChunkShift
	if c == len(l.chunks) {
		var chunk []triplet
		if c > 0 {
			chunk = make([]triplet, 0, 1<<tripletChunkShift)
		}
		l.chunks = append(l.chunks, chunk)
	}
	l.chunks[c] = append(l.chunks[c], e)
	l.n++
}

func (l *tripletLog) at(k int) triplet {
	return l.chunks[k>>tripletChunkShift][k&(1<<tripletChunkShift-1)]
}

// tileSpan locates one tile's triplets: entries [lo, hi) of a worker's
// log.
type tileSpan struct {
	log    *tripletLog
	lo, hi int
}

// tileLoadHook, when non-nil, runs before each tile layer is loaded;
// an error it returns fails that load. Tests use it to inject a
// failing tile.
var tileLoadHook func(layer, t int) error

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
	chunkBudget := opt.MemBudget
	if chunkBudget <= 0 {
		chunkBudget = srcInfo.rawBytes() + tgtInfo.rawBytes()
	}
	bk := &bucketer{
		grid:      grid,
		buckets:   [2][]tileBucket{make([]tileBucket, nTiles), make([]tileBucket, nTiles)},
		chunk:     chunkSize(chunkBudget, nTiles),
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
	if err := bk.flushSpill(); err != nil {
		return nil, stats, err
	}
	stats.SpilledBytes = bk.spilled
	stats.PeakBucketBytes = bk.peak
	stats.PeakHeldBytes = bk.peakHeld
	bk.free = nil // the pool only serves pass 2
	if bk.spilled > 0 {
		logf("tiled build: spilled %s of tile buckets to disk (budget %s)", fmtMiB(bk.spilled), fmtMiB(opt.MemBudget))
	}

	// Pass 3: join each tile, in parallel, with per-worker scratches
	// and triplet logs. The first failure stops every worker at its
	// next tile claim.
	spans := make([]tileSpan, nTiles)
	logs := make([]tripletLog, workers)
	errs := make([]error, workers)
	var failed atomic.Bool
	var pairs atomic.Int64
	var nextTile atomic.Int64
	var tilesDone atomic.Int64
	nextTile.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var tw tileWorker
			log := &logs[w]
			for {
				t := int(nextTile.Add(1))
				if t >= nTiles || failed.Load() {
					return
				}
				lo := log.n
				n, err := bk.joinTile(t, &tw, log)
				if err != nil {
					errs[w] = err
					failed.Store(true)
					return
				}
				spans[t] = tileSpan{log: log, lo: lo, hi: log.n}
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
	// tile's join order, read straight from the worker logs; the CSR
	// assembly sums duplicates per row in that order.
	dm := sparse.FromTriplets(srcInfo.records, tgtInfo.records, func(emit func(i, j int, v float64)) {
		for _, sp := range spans {
			for k := sp.lo; k < sp.hi; k++ {
				e := sp.log.at(k)
				emit(e.i, e.j, e.v)
			}
		}
	})
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
// resident-byte accounting, the pool of free chunks and the spill
// file.
//
// Buckets hold their bytes in fixed-size chunks, so a bucket never
// copies what it holds to grow, and a spill returns its chunks to the
// pool for the buckets that refill after it: once the pool has served
// the fullest moment of the pass, bucketing allocates nothing. Only a
// part larger than a chunk gets a buffer of its own, dropped when it
// spills. Chunks are allocated only when the pool is empty, so the
// bytes held — chunks in buckets plus pooled ones — are the most ever
// in use at once: with parts much smaller than a chunk, the resident
// bytes (at most half the budget, plus the last record's) and one
// partly filled chunk per bucket, which chunkSize keeps to a quarter of
// the budget. The spill schedule reads bucket lengths alone, so it is
// the same however the bytes are stored.
type bucketer struct {
	grid      *tileGrid
	buckets   [2][]tileBucket
	chunk     int   // chunk size
	threshold int64 // spill when resident exceeds this; <=0 disables
	spillDir  string

	resident int64
	peak     int64
	held     int64    // capacity of every chunk, pooled or not
	peakHeld int64    // max held
	free     [][]byte // pooled chunks
	spilled  int64
	spillF   *os.File
	spillW   *bufio.Writer
	spillOff int64
}

// chunkSize picks the bucket chunk size for a grid of nTiles tiles
// under a budget of budget bytes (the whole geometry when there is no
// budget): the largest power of two in [1 KiB, 64 KiB] with a chunk
// per bucket of both layers at most a quarter of the budget.
func chunkSize(budget int64, nTiles int) int {
	c := budget / int64(8*nTiles)
	switch {
	case c < minChunk:
		return minChunk
	case c > maxChunk:
		return maxChunk
	}
	return 1 << (bits.Len64(uint64(c)) - 1)
}

const (
	minChunk = 1 << 10
	maxChunk = 64 << 10
)

// room returns a chunk of bk with at least n bytes free: its last
// chunk if that has the room, else a new one from the pool, or freshly
// allocated when the pool is empty or n exceeds the chunk size.
func (b *bucketer) room(bk *tileBucket, n int) *[]byte {
	if k := len(bk.chunks); k > 0 && cap(bk.chunks[k-1])-len(bk.chunks[k-1]) >= n {
		return &bk.chunks[k-1]
	}
	var c []byte
	if k := len(b.free); k > 0 && n <= b.chunk {
		c = b.free[k-1]
		b.free[k-1] = nil
		b.free = b.free[:k-1]
	} else {
		c = make([]byte, 0, max(n, b.chunk))
		b.held += int64(cap(c))
		b.peakHeld = max(b.peakHeld, b.held)
	}
	bk.chunks = append(bk.chunks, c)
	return &bk.chunks[len(bk.chunks)-1]
}

// release empties bk's chunks into the pool; an oversized one is let
// go instead.
func (b *bucketer) release(bk *tileBucket) {
	for i, c := range bk.chunks {
		if cap(c) == b.chunk {
			b.free = append(b.free, c[:0])
		} else {
			b.held -= int64(cap(c))
		}
		bk.chunks[i] = nil
	}
	bk.chunks = bk.chunks[:0]
	bk.n = 0
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
					n := partHeader + 16*len(pg)
					c := b.room(bk, n)
					*c = appendPart(*c, rec, pg)
					bk.n += n
					b.resident += int64(n)
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
// hands its chunks to the pool. Per-bucket byte order is preserved:
// spilled spans replay before the resident tail, in spill order. The
// file is written sequentially through a buffer of 16 chunks, so a
// bucket's chunks cost no system call each; flushSpill must run before
// the file is read.
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
		b.spillW = bufio.NewWriterSize(f, 16*b.chunk)
	}
	for layer := range b.buckets {
		for t := range b.buckets[layer] {
			bk := &b.buckets[layer][t]
			// Tiny residues stay resident: spilling them would fragment
			// the file without freeing meaningful memory.
			if bk.n < 4096 && b.resident <= b.threshold {
				continue
			}
			if bk.n == 0 {
				continue
			}
			for _, c := range bk.chunks {
				if _, err := b.spillW.Write(c); err != nil {
					return fmt.Errorf("partition: writing spill file: %w", err)
				}
			}
			bk.segs = append(bk.segs, span{off: b.spillOff, n: bk.n})
			b.spillOff += int64(bk.n)
			b.spilled += int64(bk.n)
			b.resident -= int64(bk.n)
			b.release(bk)
		}
	}
	return nil
}

// flushSpill writes out what the spill buffer still holds.
func (b *bucketer) flushSpill() error {
	if b.spillW == nil {
		return nil
	}
	if err := b.spillW.Flush(); err != nil {
		return fmt.Errorf("partition: writing spill file: %w", err)
	}
	return nil
}

// tileWorker is one join worker's state, reused from tile to tile: the
// clip scratch (whose triangle arena holds the tile's triangulations),
// the read buffer for spilled spans, and per layer the decoded points
// (one array per tile), parts, prepared parts, R-tree entries and STR
// packing scratch. Each buffer grows to the largest tile the worker has
// joined, after which joining a tile allocates nothing.
type tileWorker struct {
	sc     geom.ClipScratch
	raw    []byte
	layers [2]tileArena
}

// tileArena holds one layer of the tile being joined.
type tileArena struct {
	pts     []geom.Point
	parts   []tilePart
	prep    []geom.PreparedPolygon
	entries []rtree.Entry
	str     rtree.Builder
}

// loadTile decodes one tile's bucket for one layer into the arena and
// prepares every part in place, triangulations going to the worker's
// triangle arena: the spilled spans, in spill order, then the resident
// tail.
func (b *bucketer) loadTile(layer, t int, tw *tileWorker) ([]tilePart, error) {
	if tileLoadHook != nil {
		if err := tileLoadHook(layer, t); err != nil {
			return nil, err
		}
	}
	bk := &b.buckets[layer][t]
	ar := &tw.layers[layer]
	size := bk.n
	for _, sg := range bk.segs {
		size += sg.n
	}
	ar.parts = ar.parts[:0]
	if size == 0 {
		return nil, nil
	}
	// Every part costs a header, so size/16 bounds the vertex count:
	// decoding never outgrows pts, and the rings carved from it stay put.
	ar.pts = slices.Grow(ar.pts[:0], size/16)
	pts := ar.pts
	var err error
	for _, sg := range bk.segs {
		tw.raw = slices.Grow(tw.raw[:0], sg.n)[:sg.n]
		if _, err := b.spillF.ReadAt(tw.raw, sg.off); err != nil {
			return nil, fmt.Errorf("partition: reading spill file: %w", err)
		}
		if ar.parts, pts, err = decodeParts(tw.raw, ar.parts, pts); err != nil {
			return nil, err
		}
	}
	for _, c := range bk.chunks {
		if ar.parts, pts, err = decodeParts(c, ar.parts, pts); err != nil {
			return nil, err
		}
	}
	ar.prep = slices.Grow(ar.prep[:0], len(ar.parts))[:len(ar.parts)]
	for k := range ar.parts {
		p := &ar.parts[k]
		ar.prep[k].PrepareInArena(p.poly, p.box)
	}
	return ar.parts, nil
}

// joinTile runs the dual-tree join of one tile's two part sets,
// keeping only pairs the tile owns under the reference-point rule, and
// appends the tile's triplets to log.
func (b *bucketer) joinTile(t int, tw *tileWorker, log *tripletLog) (int64, error) {
	tw.sc.ResetArena()
	srcParts, err := b.loadTile(0, t, tw)
	if err != nil {
		return 0, err
	}
	if len(srcParts) == 0 {
		return 0, nil
	}
	tgtParts, err := b.loadTile(1, t, tw)
	if err != nil {
		return 0, err
	}
	if len(tgtParts) == 0 {
		return 0, nil
	}
	tx, ty := t%b.grid.cols, t/b.grid.cols
	srcPrep, tgtPrep := tw.layers[0].prep, tw.layers[1].prep

	var pairs int64
	visit := func(a, b2 int) {
		pa, pb := &srcParts[a], &tgtParts[b2]
		// Reference point: the lower-left corner of the bbox
		// intersection. Exactly one tile contains it, and both parts
		// are bucketed there, so the pair is evaluated exactly once
		// across all tiles.
		rx, ry := pa.box.MinX, pa.box.MinY
		if pb.box.MinX > rx {
			rx = pb.box.MinX
		}
		if pb.box.MinY > ry {
			ry = pb.box.MinY
		}
		if b.grid.ix(rx) != tx || b.grid.iy(ry) != ty {
			return
		}
		pairs++
		if v := tw.sc.PreparedIntersectionArea(&srcPrep[a], &tgtPrep[b2]); v > 0 {
			log.add(triplet{i: pa.rec, j: pb.rec, v: v})
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
	} else {
		rtree.Join(tw.layers[0].tree(), tw.layers[1].tree(), visit)
	}
	return pairs, nil
}

// tree indexes the arena's parts by bounding box, in the arena's STR
// scratch; the tree is valid until the arena's next tile.
func (ar *tileArena) tree() *rtree.Tree {
	ar.entries = ar.entries[:0]
	for k, p := range ar.parts {
		ar.entries = append(ar.entries, rtree.Entry{Box: p.box, ID: k})
	}
	return ar.str.Build(ar.entries)
}

// partHeader is the encoded size of a part's record header.
const partHeader = 8

// appendPart encodes one part: record index, vertex count, raw
// float64-bit coordinates — a fixed little-endian layout so spilled and
// resident bytes decode identically. The part's bounding box is not
// stored: the decoder takes it while it reads the vertices anyway.
func appendPart(dst []byte, rec int, pg geom.Polygon) []byte {
	off := len(dst)
	dst = slices.Grow(dst, partHeader+16*len(pg))[:off+partHeader+16*len(pg)]
	binary.LittleEndian.PutUint32(dst[off:], uint32(rec))
	binary.LittleEndian.PutUint32(dst[off+4:], uint32(len(pg)))
	off += partHeader
	for _, p := range pg {
		binary.LittleEndian.PutUint64(dst[off:], math.Float64bits(p.X))
		binary.LittleEndian.PutUint64(dst[off+8:], math.Float64bits(p.Y))
		off += 16
	}
	return dst
}

// fmtMiB renders a byte count as fractional MiB for progress logs.
func fmtMiB(n int64) string {
	return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
}

// decodeParts parses a bucket's concatenated part encodings, appending
// the parts to parts and their vertices to pts; each part's ring is a
// capacity-capped slice of pts, so a pts with room for every vertex
// holds all the rings in one array. Malformed or truncated input is an
// error, never a read past raw.
func decodeParts(raw []byte, parts []tilePart, pts []geom.Point) ([]tilePart, []geom.Point, error) {
	off := 0
	for off < len(raw) {
		if len(raw)-off < partHeader {
			return parts, pts, fmt.Errorf("partition: corrupt tile bucket at %d", off)
		}
		rec := int(binary.LittleEndian.Uint32(raw[off:]))
		n := int(binary.LittleEndian.Uint32(raw[off+4:]))
		off += partHeader
		if n < 3 || (len(raw)-off)/16 < n {
			return parts, pts, fmt.Errorf("partition: corrupt tile bucket part at %d (%d points)", off, n)
		}
		lo := len(pts)
		box := geom.EmptyBBox()
		for i := 0; i < n; i++ {
			p := geom.Point{
				X: math.Float64frombits(binary.LittleEndian.Uint64(raw[off:])),
				Y: math.Float64frombits(binary.LittleEndian.Uint64(raw[off+8:])),
			}
			box = box.ExtendPoint(p)
			pts = append(pts, p)
			off += 16
		}
		parts = append(parts, tilePart{rec: rec, box: box, poly: pts[lo:len(pts):len(pts)]})
	}
	return parts, pts, nil
}
