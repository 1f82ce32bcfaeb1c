package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"geoalign/internal/linalg"
	"geoalign/internal/snapshot"
	"geoalign/internal/sparse"
)

// Engine is a reusable GeoAlign aligner for crosswalking many
// attributes over one fixed set of references — the §4.3 / Figure 8
// workload. Construction precomputes everything that does not depend
// on the objective attribute:
//
//   - validated shapes (every reference |U^s|×|U^t|),
//   - the Eq. 15 design matrix of max-normalised reference source
//     aggregates, together with its normal-equations form (the k×k
//     Gram matrix AᵀA and ‖A‖∞), so
//     each per-attribute solve only computes c = Aᵀb in O(ns·k) and
//     then runs the active-set solver in k-dimensional space,
//   - each reference crosswalk's row sums and their maximum (the
//     per-reference normaliser of the Eq. 14 numerator), which give
//     every source unit's Eq. 14 denominator without touching the
//     crosswalks.
//
// Redistribution never forms the estimated disaggregation matrix: the
// engine keeps each reference crosswalk target-major (DMᵀ, one row per
// target unit) and sums every target unit's re-aggregated estimate in
// a register (see redistributeTargets), with degenerate source units
// optionally redistributed by Options.FallbackDM (see addFallbackRows).
//
// After construction an Engine is immutable and safe for concurrent
// use: Align may be called from many goroutines, and AlignAll fans a
// batch of objectives across a worker pool. Per-call state lives in
// pooled scratch buffers; no two concurrent calls share mutable data.
type Engine struct {
	ns, nt int
	refs   []Reference // each DM holds the target-major crosswalk DMᵀ (nt × ns, source rows ascending)
	opts   Options

	gram    *linalg.GramSystem // Eq. 15 design matrix (ns × k, in row blocks) and its cached normal equations
	normSrc [][]float64        // its columns: maxNormalise(source_k); nil until first use on snapshot- or delta-derived engines
	nsOnce  sync.Once          // guards the lazy normSrc extraction
	nsReady atomic.Bool        // normSrc published; the only safe gate for readers outside nsOnce
	rowSums [][]float64        // row sums per reference crosswalk (the Eq. 14 denominator basis)
	maxRow  []float64          // max |row sum| per reference crosswalk
	srcMax  []float64          // max of each explicit Source (0 where Source is nil): the design column's normaliser
	patNNZ  atomic.Int64       // PatternNNZ()+1 once counted; 0 until then

	// rowNNZ counts each reference's stored entries per source row, so
	// ApplyDelta can tell a value-only row patch without scanning the
	// target-major arrays. It is counted on the first delta (or handed
	// on by the parent engine) and read only through rowCounts.
	rowNNZ     [][]int32
	rowNNZOnce sync.Once

	// snap owns the mapped snapshot file for snapshot-loaded engines
	// (nil for freshly built ones): the hot arrays above alias the
	// mapping, so it must stay mapped until Close.
	snap *snapshot.File

	fbOnce sync.Once
	fbSums []float64 // cached FallbackDM.RowSums(), computed on first degenerate row

	scratch sync.Pool
}

// engineScratch is the per-call mutable state of one Align solve.
type engineScratch struct {
	den    []float64 // Eq. 14 denominator per source unit
	scale  []float64 // per-row disaggregation factor
	w      []float64 // β scaled by the per-reference normaliser
	b      []float64 // max-normalised objective
	fbRows []int     // degenerate rows handed to the fallback

	// warm is a copy of the last β solved on this scratch against the
	// engine's own design matrix (nil until the first such solve). It
	// seeds the next solve's active set, which changes how many
	// iterations reach the learned weights, not the weights: warm and
	// cold starts end on the same passive set whenever the optimum is
	// unique.
	warm []float64
}

// NewEngine validates the references and precomputes the shared
// crosswalk structure. Every reference crosswalk must be a well-formed
// CSR matrix with finite, non-negative values, and every Source vector
// finite and non-negative; a reference that is not fails with an error
// wrapping ErrBadReference. The engine keeps its own target-major copy
// of each crosswalk, so the caller's matrices are not retained.
func NewEngine(refs []Reference, opts Options) (*Engine, error) {
	if len(refs) == 0 {
		return nil, ErrNoReferences
	}
	for k, r := range refs {
		if r.DM == nil {
			return nil, fmt.Errorf("core: reference %d (%s) has no disaggregation matrix", k, r.Name)
		}
	}
	ns, nt := refs[0].DM.Rows, refs[0].DM.Cols
	for k, r := range refs {
		if r.DM.Rows != ns || r.DM.Cols != nt {
			return nil, fmt.Errorf("core: reference %d (%s) DM is %dx%d, reference 0 is %dx%d",
				k, r.Name, r.DM.Rows, r.DM.Cols, ns, nt)
		}
		if r.Source != nil && len(r.Source) != ns {
			return nil, fmt.Errorf("core: reference %d (%s) source vector length %d, want %d",
				k, r.Name, len(r.Source), ns)
		}
	}
	e := &Engine{
		ns:   ns,
		nt:   nt,
		refs: append([]Reference(nil), refs...),
		opts: opts,
	}

	// Target-major crosswalks, Eq. 15 design matrix and Eq. 14 normalisers.
	k := len(refs)
	e.normSrc = make([][]float64, k)
	e.rowSums = make([][]float64, k)
	e.maxRow = make([]float64, k)
	e.srcMax = make([]float64, k)
	for i, r := range refs {
		what := fmt.Sprintf("reference %d (%s)", i, r.Name)
		if err := checkCSRShape(ErrBadReference, what, r.DM.IndPtr, r.DM.ColIdx, r.DM.Val, ns, nt); err != nil {
			return nil, err
		}
		if err := checkNonNegative(what+" source", r.Source); err != nil {
			return nil, err
		}
		var err error
		if e.refs[i].DM, e.rowSums[i], err = targetMajor(ErrBadReference, what, r.DM); err != nil {
			return nil, err
		}
		e.maxRow[i] = linalg.MaxAbs(e.rowSums[i])
		src := r.Source
		if src == nil {
			src = e.rowSums[i]
		} else {
			e.srcMax[i] = maxOf(src)
		}
		e.normSrc[i] = maxNormalise(src)
	}
	weightMat, err := linalg.MatrixFromColumns(e.normSrc)
	if err != nil {
		return nil, err
	}
	e.nsReady.Store(true)
	e.gram = linalg.NewGramSystem(weightMat)
	e.initPools()
	return e, nil
}

// targetMajor returns the target-major form of a validated |U^s|×|U^t|
// crosswalk — DMᵀ, one row per target unit listing its source rows in
// ascending order — together with DM's row sums, both in one pass over
// the entries. A row's entries are summed in stored order, as
// sparse.CSR.RowSums does, so the sums are bit-identical to it. A value
// that is NaN, ±Inf or negative fails with an error wrapping bad.
func targetMajor(bad error, what string, dm *sparse.CSR) (*sparse.CSR, []float64, error) {
	ns, nt := dm.Rows, dm.Cols
	ptr := make([]int, nt+1)
	for _, c := range dm.ColIdx {
		ptr[c+1]++
	}
	for c := 0; c < nt; c++ {
		ptr[c+1] += ptr[c]
	}
	next := append([]int(nil), ptr[:nt]...)
	rows := make([]int, len(dm.ColIdx))
	vals := make([]float64, len(dm.ColIdx))
	sums := make([]float64, ns)
	for i := 0; i < ns; i++ {
		var s float64
		for j := dm.IndPtr[i]; j < dm.IndPtr[i+1]; j++ {
			v := dm.Val[j]
			if !(v >= 0) || math.IsInf(v, 1) {
				return nil, nil, badf(bad, "%s row %d holds %v, want a finite non-negative value", what, i, v)
			}
			c := dm.ColIdx[j]
			rows[next[c]], vals[next[c]] = i, v
			next[c]++
			s += v
		}
		sums[i] = s
	}
	return &sparse.CSR{Rows: nt, Cols: ns, IndPtr: ptr, ColIdx: rows, Val: vals}, sums, nil
}

// checkNonNegative rejects a vector entry that is NaN, ±Inf or negative,
// wrapping ErrBadReference.
func checkNonNegative(what string, v []float64) error {
	for i, x := range v {
		if !(x >= 0) || math.IsInf(x, 1) {
			return badf(ErrBadReference, "%s entry %d is %v, want a finite non-negative value", what, i, x)
		}
	}
	return nil
}

// initPools installs the scratch-buffer pool factory; called once the
// dimensions are final (from NewEngine, ApplyDelta and the snapshot
// loader).
func (e *Engine) initPools() {
	e.scratch.New = func() any {
		return &engineScratch{
			den:   make([]float64, e.ns),
			scale: make([]float64, e.ns),
			w:     make([]float64, len(e.refs)),
			b:     make([]float64, e.ns),
		}
	}
}

// Close releases the mapped snapshot backing a snapshot-loaded engine.
// After Close the engine must not be used: its precompute arrays alias
// the mapping. Closing a freshly built engine is a no-op. Close is
// idempotent.
func (e *Engine) Close() error {
	if e.snap == nil {
		return nil
	}
	return e.snap.Close()
}

// FromSnapshot reports whether the engine was loaded from a snapshot.
func (e *Engine) FromSnapshot() bool { return e.snap != nil }

// MappedBytes returns the size of the snapshot backing this engine
// (0 for freshly built engines).
func (e *Engine) MappedBytes() int64 {
	if e.snap == nil {
		return 0
	}
	return e.snap.Size()
}

// PrecomputeBytes estimates the resident size of the engine's
// attribute-independent precompute: crosswalks, design matrix, Gram
// system and normalisers. For snapshot-loaded
// engines most of it aliases the mapping and is shared page cache
// rather than private heap.
func (e *Engine) PrecomputeBytes() int64 {
	const wordSize = 8
	var n int64
	// The lazy normSrc extraction may race with this accounting (the
	// registry polls PrecomputeBytes while traffic runs); nsReady is the
	// publication gate — e.normSrc itself must not be read without it.
	nsReady := e.nsReady.Load()
	for i, r := range e.refs {
		n += int64(len(r.DM.IndPtr)+len(r.DM.ColIdx)) * wordSize
		n += int64(len(r.DM.Val)+len(r.Source)+len(e.rowSums[i])) * wordSize
		if nsReady {
			n += int64(len(e.normSrc[i])) * wordSize
		}
	}
	n += int64(e.gram.Rows()*e.gram.Cols()+len(e.gram.Gram().Data)+len(e.maxRow)+len(e.srcMax)) * wordSize
	return n
}

// normSrcCols returns the max-normalised reference source columns,
// extracting them from the design matrix on first use. Snapshot-loaded
// and delta-derived engines skip the extraction at construction time —
// only the source-override path reads these, and the design matrix
// columns hold the exact same bits — which keeps the mmap cold-start
// free of the copy. The nsReady store publishes the slice to readers
// outside the Once (PrecomputeBytes, polled concurrently by the serving
// registry).
func (e *Engine) normSrcCols() [][]float64 {
	e.nsOnce.Do(func() {
		if e.normSrc != nil {
			e.nsReady.Store(true)
			return
		}
		k := len(e.refs)
		cols := make([][]float64, k)
		for i := range cols {
			cols[i] = make([]float64, e.ns)
		}
		for row := 0; row < e.ns; row++ {
			for i, v := range e.gram.Row(row) {
				cols[i][row] = v
			}
		}
		e.normSrc = cols
		e.nsReady.Store(true)
	})
	return e.normSrc
}

// SourceUnits returns |U^s|.
func (e *Engine) SourceUnits() int { return e.ns }

// TargetUnits returns |U^t|.
func (e *Engine) TargetUnits() int { return e.nt }

// References returns the number of references.
func (e *Engine) References() int { return len(e.refs) }

// LearnWeights runs only the weight-learning step (Eq. 15) against the
// precomputed design matrix.
func (e *Engine) LearnWeights(objective []float64) ([]float64, error) {
	if err := e.checkObjective(objective); err != nil {
		return nil, err
	}
	s := e.scratch.Get().(*engineScratch)
	defer e.scratch.Put(s)
	return e.learnWeights(objective, nil, s)
}

// LearnWeightsResidual is LearnWeights plus the relative residual
// ‖Aβ − b̂‖₂/‖b̂‖₂ of the weight-learning least-squares system in
// normalised space (b̂ = maxNormalise(objective)). The residual comes
// from the cached Gram system via the identity
// r² = b̂ᵀb̂ − 2βᵀc + βᵀGβ with c = Aᵀb̂, so it costs one O(ns·k)
// reduction and a k×k quadratic form — no extra design-matrix pass.
// The alignment catalog uses it as the reference-fit half of its
// accuracy estimate: a small residual means the engine's references
// explain the objective's source-level distribution well.
func (e *Engine) LearnWeightsResidual(objective []float64) ([]float64, float64, error) {
	if err := e.checkObjective(objective); err != nil {
		return nil, 0, err
	}
	s := e.scratch.Get().(*engineScratch)
	defer e.scratch.Put(s)
	w, err := e.learnWeights(objective, nil, s)
	if err != nil {
		return nil, 0, err
	}
	// learnWeights leaves b̂ in s.b.
	var bb float64
	for _, v := range s.b {
		bb += v * v
	}
	if bb == 0 {
		return w, 0, nil
	}
	k := len(e.refs)
	c := make([]float64, k)
	e.gram.ApplyTInto(c, s.b)
	g := e.gram.Gram()
	r2 := bb
	for i := 0; i < k; i++ {
		r2 -= 2 * w[i] * c[i]
		for j := 0; j < k; j++ {
			r2 += w[i] * g.At(i, j) * w[j]
		}
	}
	if r2 < 0 {
		r2 = 0 // cancellation noise near a perfect fit
	}
	return w, math.Sqrt(r2) / math.Sqrt(bb), nil
}

// PatternNNZ reports the nonzero count of the references' union
// sparsity pattern — the crosswalk density numerator the alignment
// catalog records per engine edge: per target unit, the distinct source
// rows any reference stores there. The count is taken on first use and
// cached; ApplyDelta hands it on to derived engines, re-checking only
// the entries a structural patch touched.
func (e *Engine) PatternNNZ() int {
	if v := e.patNNZ.Load(); v > 0 {
		return int(v - 1)
	}
	mark := make([]int, e.ns)
	n := 0
	for c := 0; c < e.nt; c++ {
		for _, r := range e.refs {
			for _, i := range r.DM.ColIdx[r.DM.IndPtr[c]:r.DM.IndPtr[c+1]] {
				if mark[i] != c+1 {
					mark[i] = c + 1
					n++
				}
			}
		}
	}
	e.patNNZ.Store(int64(n) + 1)
	return n
}

// inPattern reports whether any reference stores an entry at source
// row i of target unit c.
func inPattern(refs []Reference, c, i int) bool {
	for _, r := range refs {
		rows := r.DM.ColIdx[r.DM.IndPtr[c]:r.DM.IndPtr[c+1]]
		if p := sort.SearchInts(rows, i); p < len(rows) && rows[p] == i {
			return true
		}
	}
	return false
}

// Align crosswalks one objective attribute. Safe for concurrent use.
func (e *Engine) Align(objective []float64) (*Result, error) {
	return e.AlignWithSources(objective, nil)
}

// AlignContext is Align with cancellation: the context is checked on
// entry and again between the weight-learning and redistribution
// stages. On cancellation it returns ctx.Err() and no result.
func (e *Engine) AlignContext(ctx context.Context, objective []float64) (*Result, error) {
	return e.alignWithSourcesContext(ctx, objective, nil)
}

// AlignWithSources is Align with per-call reference source vectors
// overriding the precomputed ones in the weight-learning step (Eq. 15
// only; redistribution always follows the crosswalks, so estimates
// remain volume-preserving). sources may be nil (use precomputed), or
// length len(refs) with nil entries falling back per reference. This
// serves the §4.4.1 robustness protocol, which perturbs published
// source aggregates while the crosswalk files stay exact.
func (e *Engine) AlignWithSources(objective []float64, sources [][]float64) (*Result, error) {
	return e.alignWithSourcesContext(context.Background(), objective, sources)
}

func (e *Engine) alignWithSourcesContext(ctx context.Context, objective []float64, sources [][]float64) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := e.checkObjective(objective); err != nil {
		return nil, err
	}
	s := e.scratch.Get().(*engineScratch)
	defer e.scratch.Put(s)
	beta, err := e.learnWeights(objective, sources, s)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.redistribute(objective, beta, s)
}

// redistribute runs the disaggregation (Eq. 14) and re-aggregation
// (Eq. 17) steps for an already-learned β, using the caller's scratch.
// The target is summed straight from the target-major crosswalks (see
// redistributeTargets), which never materialises the per-entry values;
// degenerate rows then go to the fallback crosswalk, if one is set.
func (e *Engine) redistribute(objective, beta []float64, s *engineScratch) (*Result, error) {
	res := &Result{Weights: beta, Target: make([]float64, e.nt)}
	e.scaledWeights(s.w, beta)
	e.rowScales(s.scale, s.den, objective, s.w)
	e.redistributeTargets(s.w, s.scale, res.Target)
	if e.opts.FallbackDM != nil {
		s.fbRows = s.fbRows[:0]
		for i, d := range s.den {
			if d == 0 && objective[i] != 0 {
				s.fbRows = append(s.fbRows, i)
			}
		}
		if err := e.addFallbackRows(res.Target, objective, s.fbRows); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// scaledWeights fills w with the Eq. 14 numerator weights: β_k
// normalised by the reference's largest source aggregate.
func (e *Engine) scaledWeights(w, beta []float64) {
	for k, bk := range beta {
		w[k] = bk
		if mx := e.maxRow[k]; mx > 0 {
			w[k] = bk / mx
		}
	}
}

// rowScales fills scale with the per-row disaggregation factor
// objective_i / den_i, where den_i = Σ_k w_k·rowsum_k(i) uses the
// cached reference row sums — the row sum of the Eq. 14 numerator,
// without touching the matrices. Rows with zero support (den_i == 0;
// the crosswalks are non-negative, so association cannot manufacture
// or cancel a denominator) get scale 0: the degenerate Eq. 14 case,
// which drops the row's mass unless a fallback takes it.
func (e *Engine) rowScales(scale, den, objective, w []float64) {
	for i := range den {
		den[i] = 0
	}
	for k, wk := range w {
		if wk == 0 {
			continue
		}
		rs := e.rowSums[k]
		for i, r := range rs {
			den[i] += wk * r
		}
	}
	for i, d := range den {
		if d != 0 {
			scale[i] = objective[i] / d
		} else {
			scale[i] = 0
		}
	}
}

// redistributeTargets writes the re-aggregated estimate directly:
//
//	target[c] = Σ_k w_k · Σ_{i stored in DM_k column c} DM_k[i,c]·scale[i]
//
// which is Eq. 17 applied to the Eq. 14 estimate without forming the
// disaggregation matrix. Each target unit is one short pass over its
// entries in every reference's target-major crosswalk: the inner sum
// runs over the source rows in ascending order in a register, and the
// references combine in index order. Those are the orders of a
// row-by-row scatter of DM_kᵀ·scale folded into the target reference by
// reference, so the result is bit-identical to that formulation. The
// snapshot loader and NewEngine validate every stored row index as
// below ns, so scale[i] never leaves its slice.
func (e *Engine) redistributeTargets(w, scale, target []float64) {
	for c := range target {
		var t float64
		for k, r := range e.refs {
			wk := w[k]
			if wk == 0 {
				continue
			}
			lo, hi := r.DM.IndPtr[c], r.DM.IndPtr[c+1]
			rows := r.DM.ColIdx[lo:hi]
			vals := r.DM.Val[lo:hi]
			vals = vals[:len(rows)]
			var acc float64
			for j, i := range rows {
				acc += vals[j] * scale[i]
			}
			t += wk * acc
		}
		target[c] = t
	}
}

// addFallbackRows redistributes the degenerate rows (den_i == 0 with a
// nonzero objective, ascending) by the fallback crosswalk:
//
//	target += Σ_i (objective_i / fbRowSum_i) · FallbackDM row i
//
// Rows the fallback does not support either stay dropped. The shape
// check is lazy: a mis-shaped fallback is an error only when some row
// needs it. redistribute calls this after the reference pass.
func (e *Engine) addFallbackRows(target, objective []float64, rows []int) error {
	if len(rows) == 0 {
		return nil
	}
	fb := e.opts.FallbackDM
	if fb.Rows != e.ns || fb.Cols != e.nt {
		return fmt.Errorf("core: fallback DM is %dx%d, want %dx%d", fb.Rows, fb.Cols, e.ns, e.nt)
	}
	sums := e.fallbackSums()
	for _, i := range rows {
		if sums[i] == 0 {
			continue
		}
		f := objective[i] / sums[i]
		cols, vals := fb.Row(i)
		for t, v := range vals {
			target[cols[t]] += f * v
		}
	}
	return nil
}

// fallbackSums returns the cached row sums of the fallback crosswalk,
// computing them once on first use, so degenerate rows do not re-sum
// the whole fallback matrix per aligned attribute.
func (e *Engine) fallbackSums() []float64 {
	e.fbOnce.Do(func() {
		if e.opts.FallbackDM != nil {
			e.fbSums = e.opts.FallbackDM.RowSums()
		}
	})
	return e.fbSums
}

func (e *Engine) checkObjective(objective []float64) error {
	if len(objective) == 0 {
		return ErrNoSourceUnits
	}
	if len(objective) != e.ns {
		return fmt.Errorf("core: objective has %d source units, references have %d", len(objective), e.ns)
	}
	return checkFinite(objective)
}

// checkFinite rejects an objective holding NaN or ±Inf.
func checkFinite(objective []float64) error {
	for i, v := range objective {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: source unit %d is %v", ErrNonFiniteObjective, i, v)
		}
	}
	return nil
}

// learnWeights runs Eq. 15 using the cached normal equations of the
// precomputed design matrix, or a per-call system when source overrides
// are given. The objective is max-normalised into the scratch buffer.
// A solve against the cached system starts from the scratch's last β
// and, once it succeeds, leaves its own β there; a solve with source
// overrides is a different problem, so it starts cold and leaves the
// stored β alone.
func (e *Engine) learnWeights(objective []float64, sources [][]float64, s *engineScratch) ([]float64, error) {
	maxNormaliseInto(s.b, objective)
	if sources == nil {
		beta, err := e.gram.SimplexLS(s.b, s.warm)
		if err == nil {
			s.warm = append(s.warm[:0], beta...)
		}
		return beta, err
	}
	if len(sources) != len(e.refs) {
		return nil, fmt.Errorf("core: %d source overrides for %d references", len(sources), len(e.refs))
	}
	normSrc := e.normSrcCols()
	cols := make([][]float64, len(e.refs))
	for k := range e.refs {
		if sources[k] == nil {
			cols[k] = normSrc[k]
			continue
		}
		if len(sources[k]) != e.ns {
			return nil, fmt.Errorf("core: source override %d has length %d, want %d", k, len(sources[k]), e.ns)
		}
		cols[k] = maxNormalise(sources[k])
	}
	mat, err := linalg.MatrixFromColumns(cols)
	if err != nil {
		return nil, err
	}
	// Source overrides change the design matrix, so the cached Gram
	// system does not apply; a single-use one keeps the solve in k-space
	// and bit-identical to an engine with those sources baked in.
	return linalg.NewGramSystem(mat).SimplexLS(s.b, nil)
}
