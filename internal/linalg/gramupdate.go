package linalg

import "fmt"

// This file implements incremental maintenance of the Gram-form solver
// state. A source-row revision replaces one row a_i of the design
// matrix, which perturbs the normal equations by a symmetric rank-two
// correction:
//
//	G' = G − a_i·a_iᵀ + a_i'·a_i'ᵀ
//
// UpdateRow patches it into G exactly in O(k²). Whole-column rewrites
// go through RecomputeColumns, which recomputes the affected Gram rows
// and columns by dot products instead.

// MutableClone returns a GramSystem around the caller's writable copy
// of the design matrix, carrying over the receiver's Gram matrix (deep
// copied) and ‖A‖∞. a must be an element-wise identical copy of the
// receiver's design matrix — typically Clone() of it — that no other
// goroutine can see; the receiver is not modified and remains safe for
// concurrent readers.
func (gs *GramSystem) MutableClone(a *Matrix) *GramSystem {
	if a.Rows != gs.a.Rows || a.Cols != gs.a.Cols {
		panic(fmt.Sprintf("linalg: MutableClone matrix is %dx%d, want %dx%d", a.Rows, a.Cols, gs.a.Rows, gs.a.Cols))
	}
	return &GramSystem{a: a, G: gs.G.Clone(), AInf: gs.AInf}
}

// UpdateRow replaces row i of the design matrix with newRow and folds
// the exact rank-two correction newRow·newRowᵀ − oldRow·oldRowᵀ into G
// in O(k²). ‖A‖∞ is NOT refreshed here — apply a batch of row updates,
// then call RefreshInfNorm once.
//
// Only valid on a system produced by MutableClone that no other
// goroutine is using.
func (gs *GramSystem) UpdateRow(i int, newRow []float64) {
	k := gs.a.Cols
	if len(newRow) != k {
		panic(fmt.Sprintf("linalg: UpdateRow vector length %d != cols %d", len(newRow), k))
	}
	row := gs.a.Row(i)
	old := make([]float64, k)
	copy(old, row)
	copy(row, newRow)
	for p := 0; p < k; p++ {
		gp := gs.G.Row(p)
		np, op := newRow[p], old[p]
		for q := 0; q < k; q++ {
			gp[q] += np*newRow[q] - op*old[q]
		}
	}
}

// RecomputeColumns recomputes the Gram rows/columns for the given
// design-matrix columns by exact dot products, after the caller has
// rewritten those columns of the design matrix in place. It is the bulk
// path for whole-column rescales (a revision that moves a column's
// max-normaliser), where a row-by-row rank-one chain would be both
// slower and less accurate.
//
// Only valid on a system produced by MutableClone that no other
// goroutine is using.
func (gs *GramSystem) RecomputeColumns(cols []int) {
	if len(cols) == 0 {
		return
	}
	a, k := gs.a, gs.a.Cols
	dots := make([]float64, k)
	for _, j := range cols {
		if j < 0 || j >= k {
			panic(fmt.Sprintf("linalg: RecomputeColumns index %d out of range [0,%d)", j, k))
		}
		for q := range dots {
			dots[q] = 0
		}
		for r := 0; r < a.Rows; r++ {
			row := a.Row(r)
			vj := row[j]
			if vj == 0 {
				continue
			}
			for q, v := range row {
				dots[q] += vj * v
			}
		}
		grow := gs.G.Row(j)
		for q, v := range dots {
			grow[q] = v
			gs.G.Set(q, j, v)
		}
	}
}

// RefreshInfNorm recomputes ‖A‖∞ from the (patched) design matrix so
// solver tolerances match a from-scratch build exactly. Call once after
// a batch of UpdateRow/RecomputeColumns calls.
func (gs *GramSystem) RefreshInfNorm() {
	gs.AInf = matInfNorm(gs.a)
}
