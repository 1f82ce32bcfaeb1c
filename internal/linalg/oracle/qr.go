package oracle

import (
	"fmt"
	"math"

	"geoalign/internal/linalg"
)

// QR holds a Householder QR factorisation of an m×n matrix with m >= n.
// A = Q·R with Q orthogonal (stored implicitly as Householder vectors)
// and R upper triangular.
type QR struct {
	qr  *linalg.Matrix // packed factors: R in the upper triangle, v below
	tau []float64      // Householder scalars
}

// QRFactor computes the Householder QR factorisation of a. The input is
// not modified. Requires a.Rows >= a.Cols.
func QRFactor(a *linalg.Matrix) (*QR, error) {
	m, n := a.Rows, a.Cols
	if m < n {
		return nil, fmt.Errorf("oracle: QRFactor requires rows >= cols, got %dx%d", m, n)
	}
	w := a.Clone()
	tau := make([]float64, n)
	for k := 0; k < n; k++ {
		// Build the Householder reflector for column k, rows k..m-1.
		colNorm := 0.0
		for i := k; i < m; i++ {
			v := w.At(i, k)
			colNorm += v * v
		}
		colNorm = math.Sqrt(colNorm)
		if colNorm == 0 {
			tau[k] = 0
			continue
		}
		alpha := w.At(k, k)
		if alpha > 0 {
			colNorm = -colNorm
		}
		// v = x - colNorm*e1, normalised so v[0] = 1.
		v0 := alpha - colNorm
		w.Set(k, k, colNorm)
		for i := k + 1; i < m; i++ {
			w.Set(i, k, w.At(i, k)/v0)
		}
		tau[k] = -v0 / colNorm
		// Apply reflector to the remaining columns.
		for j := k + 1; j < n; j++ {
			s := w.At(k, j)
			for i := k + 1; i < m; i++ {
				s += w.At(i, k) * w.At(i, j)
			}
			s *= tau[k]
			w.Set(k, j, w.At(k, j)-s)
			for i := k + 1; i < m; i++ {
				w.Set(i, j, w.At(i, j)-s*w.At(i, k))
			}
		}
	}
	return &QR{qr: w, tau: tau}, nil
}

// applyQT overwrites b (length m) with Qᵀ·b.
func (f *QR) applyQT(b []float64) {
	m, n := f.qr.Rows, f.qr.Cols
	for k := 0; k < n; k++ {
		if f.tau[k] == 0 {
			continue
		}
		s := b[k]
		for i := k + 1; i < m; i++ {
			s += f.qr.At(i, k) * b[i]
		}
		s *= f.tau[k]
		b[k] -= s
		for i := k + 1; i < m; i++ {
			b[i] -= s * f.qr.At(i, k)
		}
	}
}

// Solve returns the least-squares solution x minimising ‖A·x − b‖₂.
// b must have length A.Rows. Returns ErrSingular if R has a zero (to
// working precision) diagonal entry.
func (f *QR) Solve(b []float64) ([]float64, error) {
	m, n := f.qr.Rows, f.qr.Cols
	if len(b) != m {
		return nil, fmt.Errorf("oracle: QR.Solve vector length %d != rows %d", len(b), m)
	}
	qtb := make([]float64, m)
	copy(qtb, b)
	f.applyQT(qtb)
	x := make([]float64, n)
	// Back substitution on R.
	eps := f.maxDiag() * 1e-13
	for i := n - 1; i >= 0; i-- {
		s := qtb[i]
		for j := i + 1; j < n; j++ {
			s -= f.qr.At(i, j) * x[j]
		}
		d := f.qr.At(i, i)
		if math.Abs(d) <= eps {
			return nil, linalg.ErrSingular
		}
		x[i] = s / d
	}
	return x, nil
}

func (f *QR) maxDiag() float64 {
	var mx float64
	for i := 0; i < f.qr.Cols; i++ {
		if a := math.Abs(f.qr.At(i, i)); a > mx {
			mx = a
		}
	}
	if mx == 0 {
		return 1
	}
	return mx
}

// LeastSquares solves min ‖A·x − b‖₂ via Householder QR.
func LeastSquares(a *linalg.Matrix, b []float64) ([]float64, error) {
	f, err := QRFactor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// SolveSPD solves A·x = b for symmetric positive-definite A.
func SolveSPD(a *linalg.Matrix, b []float64) ([]float64, error) {
	l, err := linalg.Cholesky(a)
	if err != nil {
		return nil, err
	}
	return linalg.SolveCholesky(l, b)
}
