// The fused batch alignment path. AlignAllContext processes objectives
// in chunks of redistChunk attributes so the dominant cost of a batch —
// streaming every reference crosswalk during the transpose-form
// redistribution (see redistributeTargets) — is paid once per chunk
// instead of once per attribute: each stored crosswalk entry is loaded
// once and multiplied against the whole chunk's row scales while it is
// in register.
//
// The fused pass costs about the same whatever its live count, since
// its blocks are always redistChunk lanes wide. A chunk with fewer than
// fuseMinLive successfully solved attributes — a lone objective, the
// short tail of a 17- or 33-objective batch, the small batches a busy
// server coalesces, or a chunk whose other objectives were rejected —
// therefore skips the fusion and runs each attribute through the
// single-attribute kernel of Align (redistribute). Only chunks with
// fuseMinLive or more live attributes take the fused pass and the
// pooled batchScratch.
//
// The fusion is bit-identical to per-attribute Align. For every output
// element the additions happen in exactly the order of the single-call
// path: the denominator combines references in index order, each
// reference's transpose product accumulates rows in ascending order
// (the chunk dimension is independent — it widens the inner loop
// without reordering any one attribute's sums), the per-reference
// products fold into the target in reference order, and the fallback
// rows, if any, are added last by the same addFallbackRows call.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"geoalign/internal/linalg"
)

// redistChunk is how many attributes one fused redistribution pass
// carries: every crosswalk entry loaded from memory feeds this many
// multiply-adds. Wide enough to amortise the streaming, narrow enough
// that the per-entry scale and accumulator blocks stay in L1.
const redistChunk = 16

// fuseMinLive is the fewest live attributes a chunk must carry to take
// the fused pass. BenchmarkEngineAlignAll at 12486×1052×7 on one worker
// puts the crossover between three and four: a lone attribute costs
// ~1.6ms, a fused pair 4.8ms, a fused quad 5.7ms, eight 7.7ms and
// sixteen 14.6ms, so a pair or a triple is cheaper one at a time and a
// quad is cheaper fused.
const fuseMinLive = 4

// batchChunk bounds the normalised-objective buffers of batchGramPrep:
// objectives run through the AᵀB product this many columns at a time.
const batchChunk = 32

// batchScratch is the per-worker state of one fused chunk. Scales and
// accumulators are laid out attribute-minor ([row*B+t], [col*B+t]) so
// the fused inner loops touch consecutive memory.
type batchScratch struct {
	w      []float64 // redistChunk × k scaled weights, attribute-major
	scale  []float64 // ns × redistChunk per-row disaggregation factors
	y      []float64 // nt × redistChunk transpose-product accumulators
	fbRows []int     // one attribute's degenerate rows for the fallback
}

func newBatchScratch(e *Engine) *batchScratch {
	return &batchScratch{
		w:     make([]float64, redistChunk*len(e.refs)),
		scale: make([]float64, e.ns*redistChunk),
		y:     make([]float64, e.nt*redistChunk),
	}
}

// AlignAllContext is AlignAll with cancellation. The context is checked
// between worker chunks (each chunk covers up to redistChunk
// attributes) and inside the shared AᵀB preparation; once it is
// cancelled no further chunk starts and the call returns ctx.Err()
// with no results, since a partially aligned batch is not meaningful.
func (e *Engine) AlignAllContext(ctx context.Context, objectives [][]float64, workers int) ([]*Result, error) {
	n := len(objectives)
	results := make([]*Result, n)
	if n == 0 {
		return results, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	errs := make([]error, n)
	valid := make([]int, 0, n)
	for i, obj := range objectives {
		if err := e.checkObjective(obj); err != nil {
			errs[i] = err
			continue
		}
		valid = append(valid, i)
	}

	// The shared AᵀB prep only pays off with a genuine mixture to
	// learn; k == 1 runs the plain per-objective solve.
	k := len(e.refs)
	useGram := k > 1
	var cs []float64
	var bnorms []float64
	if useGram {
		cs = make([]float64, n*k)
		bnorms = make([]float64, n)
		if err := e.batchGramPrep(ctx, objectives, valid, cs, bnorms); err != nil {
			return nil, err
		}
	}

	nChunks := (len(valid) + redistChunk - 1) / redistChunk
	if workers > nChunks {
		workers = nChunks
	}

	// processChunk solves the chunk's weights (warm-started down the
	// worker's chain) and redistributes the successfully solved
	// attributes: fewer than fuseMinLive one at a time through Align's
	// kernel, more in one fused pass over the worker's batch scratch
	// bs, taken from the pool by the worker's first fused chunk.
	// Returns the last successful β to seed the next chunk, and bs.
	processChunk := func(ci int, warm []float64, s *engineScratch, bs *batchScratch) ([]float64, *batchScratch) {
		lo := ci * redistChunk
		hi := min(lo+redistChunk, len(valid))
		idxs := valid[lo:hi]
		betas := make([][]float64, len(idxs))
		nLive := 0
		for t, i := range idxs {
			var beta []float64
			var err error
			if useGram {
				beta, err = e.solvePrepared(cs[i*k:(i+1)*k], bnorms[i], warm)
			} else {
				beta, err = e.learnWeights(objectives[i], nil, s, warm)
			}
			if err != nil {
				errs[i] = err
				continue
			}
			betas[t] = beta
			warm = beta
			nLive++
		}
		if nLive < fuseMinLive {
			for t, i := range idxs {
				if betas[t] != nil {
					results[i], errs[i] = e.redistribute(objectives[i], betas[t], s)
				}
			}
			return warm, bs
		}
		if bs == nil {
			bs = e.batch.Get().(*batchScratch)
		}
		live := e.redistributeBatch(objectives, idxs, betas, results, bs)
		if e.opts.FallbackDM != nil {
			e.batchFallback(objectives, live, results, errs, bs)
		}
		return warm, bs
	}
	// work runs one worker: it claims chunks in index order until none
	// is left or the context is cancelled, and keeps its scratch (and,
	// once a fused chunk took it, its batch scratch) across them.
	var next atomic.Int64
	work := func() {
		s := e.scratch.Get().(*engineScratch)
		var bs *batchScratch
		var warm []float64
		for ctx.Err() == nil {
			ci := int(next.Add(1)) - 1
			if ci >= nChunks {
				break
			}
			warm, bs = processChunk(ci, warm, s, bs)
		}
		e.scratch.Put(s)
		if bs != nil {
			e.batch.Put(bs)
		}
	}
	if workers <= 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return results, fmt.Errorf("core: objective %d: %w", i, err)
		}
	}
	return results, nil
}

// solvePrepared runs the weight-learning solve with the right-hand side
// pre-reduced as c = Aᵀb and ‖b‖₂; warm optionally seeds the active-set
// solver with the previous objective's β.
func (e *Engine) solvePrepared(c []float64, bnorm float64, warm []float64) ([]float64, error) {
	return linalg.SimplexLeastSquaresGramWarm(e.gram.G, c, e.gram.AInf, bnorm, warm)
}

// batchGramPrep fills cs (row i holding c_i = Aᵀ·maxNormalise(obj_i))
// and bnorms (‖maxNormalise(obj_i)‖₂) for every valid objective,
// reusing one chunk of column buffers throughout. The context is
// checked per column chunk.
func (e *Engine) batchGramPrep(ctx context.Context, objectives [][]float64, valid []int, cs, bnorms []float64) error {
	k := len(e.refs)
	cols := make([][]float64, 0, batchChunk)
	for start := 0; start < len(valid); start += batchChunk {
		if err := ctx.Err(); err != nil {
			return err
		}
		end := start + batchChunk
		if end > len(valid) {
			end = len(valid)
		}
		chunk := valid[start:end]
		for len(cols) < len(chunk) {
			cols = append(cols, make([]float64, e.ns))
		}
		for t, i := range chunk {
			maxNormaliseInto(cols[t], objectives[i])
			bnorms[i] = linalg.Norm2(cols[t])
		}
		prod := linalg.MulATB(e.weightMat, cols[:len(chunk)])
		for t, i := range chunk {
			for j := 0; j < k; j++ {
				cs[i*k+j] = prod.At(j, t)
			}
		}
	}
	return nil
}

// redistributeBatch runs the disaggregation and re-aggregation steps
// (Eq. 14/17) for every solved attribute of one chunk in the fused
// transpose form, and returns the chunk's solved attributes: those
// whose solve failed (betas[t] == nil) are skipped.
func (e *Engine) redistributeBatch(objectives [][]float64, idxs []int, betas [][]float64, results []*Result, bs *batchScratch) []int {
	// Compact the chunk to the solved attributes. idxs is this chunk's
	// private sub-slice of the valid list, so the in-place filter is
	// safe under concurrent chunk workers.
	k := len(e.refs)
	live := idxs[:0:len(idxs)]
	liveBetas := betas[:0]
	for t, i := range idxs {
		if betas[t] == nil {
			continue
		}
		e.scaledWeights(bs.w[len(liveBetas)*k:(len(liveBetas)+1)*k], betas[t])
		liveBetas = append(liveBetas, betas[t])
		live = append(live, i)
	}
	B := len(live)
	if B == 0 {
		return live
	}
	for t, i := range live {
		results[i] = &Result{Weights: liveBetas[t], Target: make([]float64, e.nt)}
	}

	// Per-row scales for the whole chunk, laid out at the fixed
	// redistChunk stride so the scatter below can use constant-width
	// blocks; a partial chunk zeroes the dead slots once so their
	// (never combined) accumulators stay finite. The denominator
	// combines the cached reference row sums in reference order — the
	// same sequence rowScales produces per attribute.
	if B < redistChunk {
		for i := range bs.scale {
			bs.scale[i] = 0
		}
	}
	scales := bs.scale
	for row := 0; row < e.ns; row++ {
		for t, i := range live {
			w := bs.w[t*k : (t+1)*k]
			var den float64
			for kk, wk := range w {
				if wk == 0 {
					continue
				}
				den += wk * e.rowSums[kk][row]
			}
			sc := 0.0
			if den != 0 {
				sc = objectives[i][row] / den
			}
			scales[row*redistChunk+t] = sc
		}
	}

	// Fused transpose products: one pass over each reference crosswalk
	// serves every attribute of the chunk. Entry values and column
	// indices are loaded once and applied across the chunk-wide scale
	// and accumulator blocks — fixed-size array pointers, so the inner
	// loop has constant bounds and no per-entry slice checks. Per
	// attribute this is the exact loop of redistributeTargets.
	y := bs.y
	for kk, r := range e.refs {
		used := false
		for t := 0; t < B; t++ {
			if bs.w[t*k+kk] != 0 {
				used = true
				break
			}
		}
		if !used {
			continue
		}
		for c := range y {
			y[c] = 0
		}
		for row := 0; row < e.ns; row++ {
			ss := (*[redistChunk]float64)(scales[row*redistChunk:])
			cols, vals := r.DM.Row(row)
			for tt, v := range vals {
				ys := (*[redistChunk]float64)(y[cols[tt]*redistChunk:])
				for t := 0; t < redistChunk; t++ {
					ys[t] += v * ss[t]
				}
			}
		}
		for t, i := range live {
			wk := bs.w[t*k+kk]
			if wk == 0 {
				continue
			}
			tgt := results[i].Target
			for c := range tgt {
				tgt[c] += wk * y[c*redistChunk+t]
			}
		}
	}
	return live
}

// batchFallback adds the fallback rows to every solved attribute of a
// fused chunk, after the reference pass as in redistribute. A row is
// degenerate when its scale is zero, its objective nonzero and its
// denominator — recomputed in rowScales' order — zero; rows go in
// ascending order. It runs apart from redistributeBatch because any
// fallback work inside that function, even untaken, slows its fused
// loops measurably.
func (e *Engine) batchFallback(objectives [][]float64, live []int, results []*Result, errs []error, bs *batchScratch) {
	k := len(e.refs)
	for t, i := range live {
		w := bs.w[t*k : (t+1)*k]
		rows := bs.fbRows[:0]
		for row, obj := range objectives[i] {
			if obj == 0 || bs.scale[row*redistChunk+t] != 0 {
				continue
			}
			var den float64
			for kk, wk := range w {
				if wk == 0 {
					continue
				}
				den += wk * e.rowSums[kk][row]
			}
			if den == 0 {
				rows = append(rows, row)
			}
		}
		bs.fbRows = rows
		if err := e.addFallbackRows(results[i].Target, objectives[i], rows); err != nil {
			results[i], errs[i] = nil, err
		}
	}
}
