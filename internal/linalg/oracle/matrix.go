// Package oracle holds the dense reference solvers that GeoAlign's
// Gram-form weight solve (linalg.GramSystem, linalg.NNLSGramWarm,
// linalg.SimplexLeastSquaresGramWarm) is checked against: Lawson–Hanson
// NNLS on the full design matrix, the simplex-constrained least squares
// of Eq. (15) built on it, Householder QR, and the dense matrix products
// they use.
//
// Only tests and benchmarks import this package; the CI workflow fails
// when a non-test package does. Each solver is written for clarity on
// small dense problems, not speed.
package oracle

import (
	"fmt"

	"geoalign/internal/linalg"
)

// MatrixFromRows builds a matrix from row slices. All rows must share one
// length.
func MatrixFromRows(rows [][]float64) (*linalg.Matrix, error) {
	if len(rows) == 0 {
		return linalg.NewMatrix(0, 0), nil
	}
	cols := len(rows[0])
	m := linalg.NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("oracle: ragged rows: row 0 has %d cols, row %d has %d", cols, i, len(r))
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// T returns the transpose of m as a new matrix.
func T(m *linalg.Matrix) *linalg.Matrix {
	t := linalg.NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// MulVec computes y = m·x. x must have length m.Cols.
func MulVec(m *linalg.Matrix, x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("oracle: MulVec dimension mismatch: %dx%d matrix, vector of length %d", m.Rows, m.Cols, len(x)))
	}
	y := make([]float64, m.Rows)
	for i := range y {
		var s float64
		for j, v := range m.Row(i) {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// MulVecT computes y = mᵀ·x, row by row and skipping zero entries of x.
// x must have length m.Rows.
func MulVecT(m *linalg.Matrix, x []float64) []float64 {
	if len(x) != m.Rows {
		panic(fmt.Sprintf("oracle: MulVecT dimension mismatch: %dx%d matrix, vector of length %d", m.Rows, m.Cols, len(x)))
	}
	y := make([]float64, m.Cols)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		for j, v := range m.Row(i) {
			y[j] += v * xi
		}
	}
	return y
}

// Mul computes a·b as a new matrix.
func Mul(a, b *linalg.Matrix) *linalg.Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("oracle: Mul dimension mismatch: %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := linalg.NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		orow := out.Row(i)
		for k, aik := range a.Row(i) {
			if aik == 0 {
				continue
			}
			for j, bkj := range b.Row(k) {
				orow[j] += aik * bkj
			}
		}
	}
	return out
}

// Gram computes mᵀ·m in one pass over the rows, summing the upper
// triangle and mirroring it.
func Gram(m *linalg.Matrix) *linalg.Matrix {
	g := linalg.NewMatrix(m.Cols, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for a, va := range row {
			if va == 0 {
				continue
			}
			grow := g.Row(a)
			for b := a; b < m.Cols; b++ {
				grow[b] += va * row[b]
			}
		}
	}
	for a := 0; a < m.Cols; a++ {
		for b := a + 1; b < m.Cols; b++ {
			g.Set(b, a, g.At(a, b))
		}
	}
	return g
}

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("oracle: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Axpy computes y += alpha*x in place.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("oracle: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	if alpha == 0 {
		return
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Sub returns a-b as a new slice.
func Sub(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("oracle: Sub length mismatch %d vs %d", len(a), len(b)))
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}
