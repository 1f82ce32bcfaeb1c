package linalg

import (
	"fmt"
	"math"
)

// This file implements the normal-equations ("Gram-form") fast path for
// GeoAlign's weight learning. The Eq. 15 design matrix A (|U^s| rows ×
// |A_r| columns, ns ≫ k) is fixed per engine while the right-hand side
// b changes per attribute, so everything quadratic in ns is hoisted
// into a one-time precomputation:
//
//   - G = AᵀA, a k×k Gram matrix, summed block by block over the ns
//     rows;
//   - ‖A‖∞, which scales the solver's tolerances.
//
// A per-attribute solve then needs only c = Aᵀb — O(ns·k), blocked the
// same way and allocation-free — after which the active-set solver
// runs entirely in k-dimensional space: each Lawson–Hanson
// iteration costs one |P|³ Cholesky factorisation instead of the
// O(ns·|P|²) tall factorisation of the dense path.
//
// Both kernels run on the caller's goroutine: at the paper's US scale
// c = Aᵀb is ~2·10⁵ multiply-adds, too little for a fork/join to pay,
// so parallelism comes from running independent solves side by side
// (AlignAll, the server's concurrent requests).

// GramBlockRows is the row-block size of the blocked kernels and of
// the design-matrix storage, so a copy-on-write block is also a unit of
// the kernels' work. Each block's partial sum starts from zero and the
// partials are added in block order; that grouping fixes the bits of G
// and c = Aᵀb.
const GramBlockRows = 2048

// applyTChunk is how many columns ApplyTInto accumulates per pass over
// a block. The block partial lives in a stack array of this size, so
// the product allocates nothing; wider systems take ⌈k/applyTChunk⌉
// passes, and every column's sum is formed in the same order either
// way.
const applyTChunk = 32

// GramSystem caches the normal-equations form of a fixed design matrix.
// It is immutable after construction and safe for concurrent use.
// Incremental maintenance goes through MutableClone (gramupdate.go),
// which derives a single-owner writable copy and leaves the original
// untouched.
//
// The design matrix is held as row blocks of GramBlockRows rows (the
// last may be shorter), each row-major — the same partition the blocked
// kernels reduce over. A built or restored system views one contiguous
// array as its blocks without copying; a mutable clone shares its
// parent's blocks and copies one only on its first write to it, so a
// row revision costs one block, not the whole matrix.
type GramSystem struct {
	rows, cols int
	blocks     [][]float64
	// flat is the contiguous row-major array the blocks view, or nil
	// once a clone has replaced one of them with a private copy.
	flat []float64
	// owned marks the blocks a mutable clone has made private; nil on
	// built and restored systems, which are never written.
	owned []bool

	G    *Matrix // k×k Gram matrix AᵀA
	AInf float64 // matInfNorm of the design matrix: scales solver tolerances and μ

	// rowInf is the largest row abs-sum — AInf before matInfNorm's
	// all-zero convention — unless infStale says it is unknown (after a
	// column rewrite, when a row that held it shrank, or on a restored
	// system whose AInf of 1 may stand for an all-zero matrix).
	rowInf   float64
	infStale bool
}

// NewGramSystem precomputes the Gram matrix and norm of a. The matrix
// is captured by reference and must not be mutated afterwards.
func NewGramSystem(a *Matrix) *GramSystem {
	gs := viewBlocks(a)
	gs.G = gramOf(gs)
	gs.rowInf = gs.maxRowAbsSum()
	gs.AInf = infNorm(gs.rowInf)
	return gs
}

// RestoreGramSystem rebuilds a GramSystem from previously computed
// parts — the design matrix, its Gram matrix G = AᵀA and ‖A‖∞ — without
// redoing the O(ns·k²) Gram pass. It exists for the engine
// snapshot loader; the caller vouches that the parts belong together.
// Both matrices are captured by reference and must not be mutated.
func RestoreGramSystem(a, g *Matrix, ainf float64) *GramSystem {
	gs := viewBlocks(a)
	gs.G, gs.AInf = g, ainf
	// ‖A‖∞ = 1 is also what an all-zero matrix reports, so the largest
	// row sum behind it is unknown until a rescan.
	gs.rowInf, gs.infStale = ainf, ainf == 1
	return gs
}

// viewBlocks returns a system whose blocks alias a's rows.
func viewBlocks(a *Matrix) *GramSystem {
	k := a.Cols
	nb := numBlocks(a.Rows)
	blocks := make([][]float64, nb)
	for bi := range blocks {
		lo, hi := blockRange(bi, a.Rows)
		blocks[bi] = a.Data[lo*k : hi*k : hi*k]
	}
	return &GramSystem{rows: a.Rows, cols: k, blocks: blocks, flat: a.Data}
}

// infNorm applies matInfNorm's convention to a largest row abs-sum: an
// all-zero matrix reports 1.
func infNorm(rowInf float64) float64 {
	if rowInf == 0 {
		return 1
	}
	return rowInf
}

// maxRowAbsSum returns the largest row abs-sum, each row summed in
// column order as matInfNorm does.
func (gs *GramSystem) maxRowAbsSum() float64 {
	if gs.cols == 0 {
		return 0
	}
	var mx float64
	for _, blk := range gs.blocks {
		for lo := 0; lo < len(blk); lo += gs.cols {
			if s := absSum(blk[lo : lo+gs.cols]); s > mx {
				mx = s
			}
		}
	}
	return mx
}

// absSum returns Σ|v_j| summed in index order.
func absSum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

// Rows returns the design matrix row count (|U^s|).
func (gs *GramSystem) Rows() int { return gs.rows }

// Cols returns the design matrix column count (|A_r|).
func (gs *GramSystem) Cols() int { return gs.cols }

// Gram returns the cached k×k Gram matrix AᵀA. Callers must not mutate
// it.
func (gs *GramSystem) Gram() *Matrix { return gs.G }

// Row returns row i of the design matrix. It aliases the system's
// storage: callers must not mutate it.
func (gs *GramSystem) Row(i int) []float64 {
	bi := i / GramBlockRows
	off := (i - bi*GramBlockRows) * gs.cols
	return gs.blocks[bi][off : off+gs.cols : off+gs.cols]
}

// Design returns the design matrix as one row-major array. It aliases
// the system's storage when the blocks still view one array, and is a
// fresh copy otherwise; callers must not mutate it either way.
func (gs *GramSystem) Design() []float64 {
	if gs.flat != nil {
		return gs.flat
	}
	out := make([]float64, 0, gs.rows*gs.cols)
	for _, blk := range gs.blocks {
		out = append(out, blk...)
	}
	return out
}

// ApplyTInto computes dst = Aᵀb in O(ns·k) without allocating. dst
// must have length k, b length ns. Each row block's partial starts
// from zero and the partials are added to dst in block order.
func (gs *GramSystem) ApplyTInto(dst, b []float64) {
	if len(b) != gs.rows {
		panic(fmt.Sprintf("linalg: ApplyTInto vector length %d != rows %d", len(b), gs.rows))
	}
	if len(dst) != gs.cols {
		panic(fmt.Sprintf("linalg: ApplyTInto destination length %d != cols %d", len(dst), gs.cols))
	}
	k := gs.cols
	for j := range dst {
		dst[j] = 0
	}
	var part [applyTChunk]float64
	for j0 := 0; j0 < k; j0 += applyTChunk {
		local := part[:min(k-j0, applyTChunk)]
		for bi, blk := range gs.blocks {
			lo, hi := blockRange(bi, gs.rows)
			for j := range local {
				local[j] = 0
			}
			accumT(local, blk, b[lo:hi], k, j0)
			for j, v := range local {
				dst[j0+j] += v
			}
		}
	}
}

// accumT adds columns [j0, j0+len(acc)) of blkᵀ·b to acc, where blk
// holds len(b) rows of k columns, row by row in order and skipping
// zero entries of b.
func accumT(acc, blk, b []float64, k, j0 int) {
	for i, xi := range b {
		if xi == 0 {
			continue
		}
		row := blk[i*k+j0 : i*k+j0+len(acc)]
		for j, v := range row {
			acc[j] += v * xi
		}
	}
}

// SimplexLS solves the Eq. 15 simplex-constrained least-squares problem
// for right-hand side b against the cached system, optionally seeding
// the active-set solver from a previous solution (warm may be nil).
func (gs *GramSystem) SimplexLS(b, warm []float64) ([]float64, error) {
	k := gs.cols
	if k == 0 {
		return nil, ErrNoColumns
	}
	if len(b) != gs.rows {
		return nil, fmt.Errorf("linalg: simplex LS vector length %d != rows %d", len(b), gs.rows)
	}
	if k == 1 {
		return []float64{1}, nil
	}
	c := make([]float64, k)
	gs.ApplyTInto(c, b)
	return SimplexLeastSquaresGramWarm(gs.G, c, gs.AInf, Norm2(b), warm)
}

// numBlocks returns how many GramBlockRows-sized chunks cover rows.
func numBlocks(rows int) int {
	return (rows + GramBlockRows - 1) / GramBlockRows
}

// blockRange returns the row range [lo, hi) of block bi.
func blockRange(bi, rows int) (lo, hi int) {
	lo = bi * GramBlockRows
	hi = lo + GramBlockRows
	if hi > rows {
		hi = rows
	}
	return lo, hi
}

// gramOf computes the Gram matrix of gs's blocks: per-block upper
// triangles summed in block order, then mirrored.
func gramOf(gs *GramSystem) *Matrix {
	k := gs.cols
	g := NewMatrix(k, k)
	local := make([]float64, k*k)
	for bi, blk := range gs.blocks {
		lo, hi := blockRange(bi, gs.rows)
		for t := range local {
			local[t] = 0
		}
		for i := 0; i < hi-lo; i++ {
			row := blk[i*k : (i+1)*k]
			for p, vp := range row {
				if vp == 0 {
					continue
				}
				grow := local[p*k : (p+1)*k]
				for q := p; q < k; q++ {
					grow[q] += vp * row[q]
				}
			}
		}
		for t, v := range local {
			g.Data[t] += v
		}
	}
	for p := 0; p < k; p++ {
		for q := p + 1; q < k; q++ {
			g.Set(q, p, g.At(p, q))
		}
	}
	return g
}

// GramTolerance reproduces the dense NNLS dual tolerance
// 10·ε·n·‖A‖∞·(‖b‖₂+1) for callers driving NNLSGramWarm directly.
func GramTolerance(ainf, bnorm float64, n int) float64 {
	return 10 * machEps * float64(n) * ainf * (bnorm + 1)
}

// NNLSGramWarm solves min ‖A·x − b‖₂ s.t. x ≥ 0 given only the normal
// equations: g = AᵀA and c = Aᵀb. It runs the same Lawson–Hanson
// active-set iteration as NNLS, but the dual vector is c − G·x (O(k²))
// and each passive-set solve is a |P|×|P| Cholesky factorisation —
// no O(ns·…) work at all. tol is the dual tolerance (see
// GramTolerance); tol <= 0 substitutes a scale-appropriate default.
//
// When a passive-set Gram block is not numerically positive definite
// the offending column is dropped, matching the dense solver's
// behaviour on rank-deficient passive sets.
//
// warm, when non-nil, seeds the solve with a previous solution: the
// passive set starts at warm's support and x at warm clipped to it,
// which makes repeated solves against slowly varying right-hand sides
// converge in one or two active-set iterations. warm is never mutated.
// The result is a KKT point of the same problem; for a unique optimum
// it is identical to the cold-start (nil warm) solution.
func NNLSGramWarm(g *Matrix, c []float64, tol float64, warm []float64) ([]float64, error) {
	n := g.Rows
	if g.Cols != n {
		return nil, fmt.Errorf("linalg: NNLSGramWarm needs a square Gram matrix, got %dx%d", g.Rows, g.Cols)
	}
	if len(c) != n {
		return nil, fmt.Errorf("linalg: NNLSGramWarm vector length %d != order %d", len(c), n)
	}
	if n == 0 {
		return nil, nil
	}
	if tol <= 0 {
		tol = GramTolerance(matInfNorm(g), Norm2(c), n)
	}

	x := make([]float64, n)
	passive := make([]bool, n)
	w := make([]float64, n)
	z := make([]float64, n)

	if len(warm) == n {
		seeded := false
		for j, v := range warm {
			if v > tol {
				passive[j] = true
				x[j] = v
				seeded = true
			}
		}
		if seeded && !gramInnerSolve(g, c, tol, passive, x, z) {
			// The warm passive set is rank deficient; restart cold.
			for j := range x {
				x[j] = 0
				passive[j] = false
			}
		}
	}

	maxOuter := 3 * n
	if maxOuter < 30 {
		maxOuter = 30
	}
	for outer := 0; outer < maxOuter; outer++ {
		// Dual vector w = c − G·x.
		for i := 0; i < n; i++ {
			s := c[i]
			row := g.Row(i)
			for j, v := range row {
				s -= v * x[j]
			}
			w[i] = s
		}
		t, wmax := -1, tol
		for j := 0; j < n; j++ {
			if !passive[j] && w[j] > wmax {
				wmax, t = w[j], j
			}
		}
		if t < 0 {
			break // KKT satisfied
		}
		passive[t] = true
		if !gramInnerSolve(g, c, tol, passive, x, z) {
			// The newly added column is linearly dependent; drop it.
			passive[t] = false
		}
	}
	return x, nil
}

// gramInnerSolve runs the Lawson–Hanson inner loop in Gram space: solve
// the unconstrained problem on the passive set and backtrack while any
// passive variable would go negative, shrinking the passive set. On
// success x is the feasible passive-set least-squares solution. It
// returns false when a passive-set solve meets a singular Gram block
// before any progress is made.
func gramInnerSolve(g *Matrix, c []float64, tol float64, passive []bool, x, z []float64) bool {
	n := len(c)
	for inner := 0; inner <= n+1; inner++ {
		if !solvePassiveGram(g, c, passive, z) {
			return false
		}
		neg := false
		alpha := math.Inf(1)
		for j := 0; j < n; j++ {
			if passive[j] && z[j] <= 0 {
				neg = true
				denom := x[j] - z[j]
				if denom != 0 {
					if a := x[j] / denom; a < alpha {
						alpha = a
					}
				}
			}
		}
		if !neg {
			for j := 0; j < n; j++ {
				if passive[j] {
					x[j] = z[j]
				} else {
					x[j] = 0
				}
			}
			return true
		}
		if math.IsInf(alpha, 1) {
			alpha = 0
		}
		for j := 0; j < n; j++ {
			if passive[j] {
				x[j] += alpha * (z[j] - x[j])
				if x[j] <= tol {
					x[j] = 0
					passive[j] = false
				}
			}
		}
	}
	return true
}

// solvePassiveGram solves G_PP·z_P = c_P for the passive index set via
// Cholesky, scattering the solution into the full-length z (zeros on
// the active set). Returns false when G_PP is not numerically positive
// definite.
func solvePassiveGram(g *Matrix, c []float64, passive []bool, z []float64) bool {
	n := len(c)
	idx := make([]int, 0, n)
	for j := 0; j < n; j++ {
		if passive[j] {
			idx = append(idx, j)
		}
	}
	for j := range z {
		z[j] = 0
	}
	if len(idx) == 0 {
		return true
	}
	p := len(idx)
	sub := NewMatrix(p, p)
	rhs := make([]float64, p)
	for r, jr := range idx {
		grow := g.Row(jr)
		srow := sub.Row(r)
		for q, jq := range idx {
			srow[q] = grow[jq]
		}
		rhs[r] = c[jr]
	}
	l, err := Cholesky(sub)
	if err != nil {
		return false
	}
	sol, err := SolveCholesky(l, rhs)
	if err != nil {
		return false
	}
	for r, jr := range idx {
		z[jr] = sol[r]
	}
	return true
}

// SimplexLeastSquaresGramWarm solves GeoAlign's Eq. 15 weight-learning
// problem given only the normal equations of the design matrix:
// g = AᵀA, c = Aᵀb, ainf = ‖A‖∞ and bnorm = ‖b‖₂. It reproduces
// SimplexLeastSquares exactly — the same μ-weighted equality
// augmentation, here as a rank-one update G + μ²·11ᵀ and c + μ²·1, the
// same NNLS iteration, the same renormalisation and degenerate-case
// fallbacks — with per-solve cost independent of the row count. warm,
// when non-nil, is a previous β seeding the active-set solver.
func SimplexLeastSquaresGramWarm(g *Matrix, c []float64, ainf, bnorm float64, warm []float64) ([]float64, error) {
	k := g.Rows
	if k == 0 {
		return nil, ErrNoColumns
	}
	if g.Cols != k {
		return nil, fmt.Errorf("linalg: simplex LS Gram matrix is %dx%d, want square", g.Rows, g.Cols)
	}
	if len(c) != k {
		return nil, fmt.Errorf("linalg: simplex LS Gram vector length %d != order %d", len(c), k)
	}
	if k == 1 {
		return []float64{1}, nil
	}
	if ainf == 0 {
		ainf = 1 // matInfNorm's convention for an all-zero matrix
	}

	mu := 1e4 * (ainf + bnorm + 1)
	mu2 := mu * mu
	gaug := NewMatrix(k, k)
	for i := 0; i < k; i++ {
		grow := g.Row(i)
		arow := gaug.Row(i)
		for j, v := range grow {
			arow[j] = v + mu2
		}
	}
	caug := make([]float64, k)
	for j, v := range c {
		caug[j] = v + mu2
	}
	// The dense path's dual tolerance, expressed through the augmented
	// system's norms: ‖aug‖∞ = max(‖A‖∞, k·μ) and ‖baug‖₂ = √(‖b‖²+μ²).
	augInf := float64(k) * mu
	if ainf > augInf {
		augInf = ainf
	}
	tol := GramTolerance(augInf, math.Hypot(bnorm, mu), k)

	beta, err := NNLSGramWarm(gaug, caug, tol, warm)
	if err != nil {
		return nil, err
	}
	s := Sum(beta)
	if s <= 0 || math.IsNaN(s) {
		// b is orthogonal to every feasible direction; fall back to the
		// uninformative uniform combination.
		for j := range beta {
			beta[j] = 1 / float64(k)
		}
		return beta, nil
	}
	Scale(1/s, beta)
	return beta, nil
}
