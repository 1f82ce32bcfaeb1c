package linalg

import (
	"fmt"
	"math"
)

// Cholesky computes the lower-triangular L with A = L·Lᵀ for a symmetric
// positive-definite matrix. Returns ErrSingular when A is not (numerically)
// positive definite.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: Cholesky requires a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			ljk := l.At(j, k)
			d -= ljk * ljk
		}
		if d <= 0 {
			return nil, ErrSingular
		}
		d = math.Sqrt(d)
		l.Set(j, j, d)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/d)
		}
	}
	return l, nil
}

// SolveCholesky solves A·x = b given the Cholesky factor L of A.
func SolveCholesky(l *Matrix, b []float64) ([]float64, error) {
	n := l.Rows
	if len(b) != n {
		return nil, fmt.Errorf("linalg: SolveCholesky vector length %d != order %d", len(b), n)
	}
	// Forward solve L·y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for j := 0; j < i; j++ {
			s -= l.At(i, j) * y[j]
		}
		d := l.At(i, i)
		if d == 0 {
			return nil, ErrSingular
		}
		y[i] = s / d
	}
	// Back solve Lᵀ·x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= l.At(j, i) * x[j]
		}
		x[i] = s / l.At(i, i)
	}
	return x, nil
}
