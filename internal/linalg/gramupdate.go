package linalg

import "fmt"

// This file implements incremental maintenance of the Gram-form solver
// state. A source-row revision replaces one row a_i of the design
// matrix, which perturbs the normal equations by a symmetric rank-two
// correction:
//
//	G' = G − a_i·a_iᵀ + a_i'·a_i'ᵀ
//
// UpdateRow patches it into G exactly in O(k²), copies the one row
// block it writes, and keeps ‖A‖∞ from the old and new row sums.
// Whole-column rewrites go through RecomputeColumns, which recomputes
// the affected Gram rows and columns by dot products instead.

// MutableClone returns a writable copy of the system for a single
// owner: it copies the block list and G (k×k) and carries over ‖A‖∞,
// while the design-matrix blocks stay shared with the receiver until
// the clone writes them — UpdateRow copies a block on its first write
// to it, RecomputeColumns and Own copy every block still shared. The
// receiver is not modified and remains safe for concurrent readers.
func (gs *GramSystem) MutableClone() *GramSystem {
	return &GramSystem{
		rows:     gs.rows,
		cols:     gs.cols,
		blocks:   append([][]float64(nil), gs.blocks...),
		flat:     gs.flat,
		owned:    make([]bool, len(gs.blocks)),
		G:        gs.G.Clone(),
		AInf:     gs.AInf,
		rowInf:   gs.rowInf,
		infStale: gs.infStale,
	}
}

// Own makes the clone share no storage with the system it was cloned
// from (nor with a mapping that system aliases): unless every block is
// already its own, it copies all of them into one fresh contiguous
// array, which Design then returns without a further copy.
//
// Only valid on a system produced by MutableClone that no other
// goroutine is using.
func (gs *GramSystem) Own() {
	all := true
	for _, o := range gs.owned {
		all = all && o
	}
	if all {
		return
	}
	k := gs.cols
	flat := make([]float64, gs.rows*k)
	for bi, blk := range gs.blocks {
		lo, hi := blockRange(bi, gs.rows)
		copy(flat[lo*k:hi*k], blk)
		gs.blocks[bi] = flat[lo*k : hi*k : hi*k]
		gs.owned[bi] = true
	}
	gs.flat = flat
}

// writableRow returns row i for writing, first copying its block when
// the clone still shares it.
func (gs *GramSystem) writableRow(i int) []float64 {
	bi := i / GramBlockRows
	if !gs.owned[bi] {
		gs.blocks[bi] = append([]float64(nil), gs.blocks[bi]...)
		gs.owned[bi] = true
		gs.flat = nil
	}
	return gs.Row(i)
}

// UpdateRow replaces row i of the design matrix with newRow and folds
// the exact rank-two correction newRow·newRowᵀ − oldRow·oldRowᵀ into G
// in O(k²). It compares the old and new row abs-sums against the
// largest one: a new maximum is taken as is, and only a row that held
// the maximum and shrank leaves it unknown for RefreshInfNorm to
// rescan. AInf itself is NOT refreshed here — apply a batch of row
// updates, then call RefreshInfNorm once.
//
// Only valid on a system produced by MutableClone that no other
// goroutine is using.
func (gs *GramSystem) UpdateRow(i int, newRow []float64) {
	k := gs.cols
	if len(newRow) != k {
		panic(fmt.Sprintf("linalg: UpdateRow vector length %d != cols %d", len(newRow), k))
	}
	row := gs.writableRow(i)
	old := append([]float64(nil), row...)
	copy(row, newRow)
	for p := 0; p < k; p++ {
		gp := gs.G.Row(p)
		np, op := newRow[p], old[p]
		for q := 0; q < k; q++ {
			gp[q] += np*newRow[q] - op*old[q]
		}
	}
	if gs.infStale {
		return
	}
	was, now := absSum(old), absSum(newRow)
	switch {
	case now > gs.rowInf:
		gs.rowInf = now
	case was == gs.rowInf && !(now >= was):
		gs.infStale = true
	}
}

// RecomputeColumns rewrites design-matrix column cols[t] to vals[t]
// (length Rows) for every t, then recomputes the Gram rows/columns of
// those columns by exact dot products. It is the bulk path for
// whole-column rescales (a revision that moves a column's
// max-normaliser), where a row-by-row rank-one chain would be both
// slower and less accurate. A column rewrite touches every block, so
// the clone owns them all afterwards, and ‖A‖∞ is left for
// RefreshInfNorm to rescan.
//
// Only valid on a system produced by MutableClone that no other
// goroutine is using.
func (gs *GramSystem) RecomputeColumns(cols []int, vals [][]float64) {
	if len(cols) != len(vals) {
		panic(fmt.Sprintf("linalg: RecomputeColumns got %d columns and %d value vectors", len(cols), len(vals)))
	}
	if len(cols) == 0 {
		return
	}
	k := gs.cols
	for t, j := range cols {
		if j < 0 || j >= k {
			panic(fmt.Sprintf("linalg: RecomputeColumns index %d out of range [0,%d)", j, k))
		}
		if len(vals[t]) != gs.rows {
			panic(fmt.Sprintf("linalg: RecomputeColumns column length %d != rows %d", len(vals[t]), gs.rows))
		}
	}
	gs.Own()
	for t, j := range cols {
		for i, v := range vals[t] {
			gs.Row(i)[j] = v
		}
	}
	dots := make([]float64, k)
	for _, j := range cols {
		for q := range dots {
			dots[q] = 0
		}
		for r := 0; r < gs.rows; r++ {
			row := gs.Row(r)
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
	gs.infStale = true
}

// RefreshInfNorm brings ‖A‖∞ up to date after a batch of
// UpdateRow/RecomputeColumns calls, so solver tolerances match a
// from-scratch build bit for bit. It costs O(1) when UpdateRow kept the
// largest row sum, and rescans the design matrix only when it could
// not: after a column rewrite, or when a row that held the maximum
// shrank.
func (gs *GramSystem) RefreshInfNorm() {
	if gs.infStale {
		gs.rowInf = gs.maxRowAbsSum()
		gs.infStale = false
	}
	gs.AInf = infNorm(gs.rowInf)
}
