// Package linalg provides the linear algebra of GeoAlign's
// weight-learning step: dense row-major matrices, Cholesky
// factorisation, and the Gram-form solvers (GramSystem, NNLSGramWarm,
// SimplexLeastSquaresGramWarm) that fit Eq. (15) of the paper from the
// normal equations of its design matrix.
//
// Everything is implemented on float64 slices with no external
// dependencies. The dense solvers the Gram form is checked against —
// Lawson–Hanson NNLS on the full design matrix, Householder QR and the
// dense simplex least squares — live in the oracle subpackage, which
// only tests import.
package linalg

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense, row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, Data[r*Cols+c]
}

// NewMatrix returns a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative matrix dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// MatrixFromColumns builds a matrix whose j-th column is cols[j]. All
// columns must share one length.
func MatrixFromColumns(cols [][]float64) (*Matrix, error) {
	if len(cols) == 0 {
		return NewMatrix(0, 0), nil
	}
	rows := len(cols[0])
	m := NewMatrix(rows, len(cols))
	for j, c := range cols {
		if len(c) != rows {
			return nil, fmt.Errorf("linalg: ragged columns: col 0 has %d rows, col %d has %d", rows, j, len(c))
		}
		for i, v := range c {
			m.Set(i, j, v)
		}
	}
	return m, nil
}

// At returns the element at row r, column c.
func (m *Matrix) At(r, c int) float64 {
	m.boundsCheck(r, c)
	return m.Data[r*m.Cols+c]
}

// Set assigns the element at row r, column c.
func (m *Matrix) Set(r, c int, v float64) {
	m.boundsCheck(r, c)
	m.Data[r*m.Cols+c] = v
}

func (m *Matrix) boundsCheck(r, c int) {
	if r < 0 || r >= m.Rows || c < 0 || c >= m.Cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of bounds for %dx%d matrix", r, c, m.Rows, m.Cols))
	}
}

// Row returns a view (not a copy) of row r.
func (m *Matrix) Row(r int) []float64 {
	if r < 0 || r >= m.Rows {
		panic(fmt.Sprintf("linalg: row %d out of bounds for %dx%d matrix", r, m.Rows, m.Cols))
	}
	return m.Data[r*m.Cols : (r+1)*m.Cols]
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	n := NewMatrix(m.Rows, m.Cols)
	copy(n.Data, m.Data)
	return n
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%dx%d[", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			sb.WriteString("; ")
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%.6g", m.At(i, j))
		}
	}
	sb.WriteByte(']')
	return sb.String()
}

// ErrSingular is returned when a factorisation or solve meets a
// (numerically) singular matrix.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// Norm2 returns the Euclidean norm of v, guarding against overflow.
func Norm2(v []float64) float64 {
	var scale, ssq float64
	ssq = 1
	for _, x := range v {
		if x == 0 {
			continue
		}
		ax := math.Abs(x)
		if scale < ax {
			r := scale / ax
			ssq = 1 + ssq*r*r
			scale = ax
		} else {
			r := ax / scale
			ssq += r * r
		}
	}
	if scale == 0 {
		return 0
	}
	return scale * math.Sqrt(ssq)
}

// Scale multiplies v by alpha in place.
func Scale(alpha float64, v []float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// Sum returns the sum of the entries of v.
func Sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// MaxAbs returns the largest absolute entry of v (0 for empty v).
func MaxAbs(v []float64) float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}
