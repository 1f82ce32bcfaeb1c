package linalg

import (
	"fmt"
	"math"
)

// NNLS solves the non-negative least squares problem
//
//	min ‖A·x − b‖₂  subject to  x ≥ 0
//
// with the Lawson–Hanson active-set algorithm (Solving Least Squares
// Problems, 1974, ch. 23). The returned x is a Karush–Kuhn–Tucker point:
// x ≥ 0 and the gradient Aᵀ(Ax−b) is ≥ 0 on the active (zero) set and ≈ 0
// on the passive set.
func NNLS(a *Matrix, b []float64) ([]float64, error) {
	m, n := a.Rows, a.Cols
	if len(b) != m {
		return nil, fmt.Errorf("linalg: NNLS vector length %d != rows %d", len(b), m)
	}
	if n == 0 {
		return nil, nil
	}

	x := make([]float64, n)
	passive := make([]bool, n)
	resid := make([]float64, m)
	copy(resid, b) // residual b - A·x with x = 0

	// Tolerance scaled to the problem: entries of w below tol count as
	// non-positive.
	tol := 10 * machEps * float64(n) * matInfNorm(a) * (Norm2(b) + 1)

	maxOuter := 3 * n
	if maxOuter < 30 {
		maxOuter = 30
	}
	for outer := 0; outer < maxOuter; outer++ {
		// Dual vector w = Aᵀ·resid.
		w := a.MulVecT(resid)
		// Pick the most positive w among active variables.
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

		// Inner loop: solve the unconstrained LS on the passive set and
		// backtrack while any passive variable would go negative.
		for inner := 0; inner <= n+1; inner++ {
			z, err := solvePassive(a, b, passive)
			if err != nil {
				// The newly added column is linearly dependent; drop it
				// and stop considering it a candidate this round.
				passive[t] = false
				break
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
				break
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
		// Refresh the residual.
		ax := a.MulVec(x)
		for i := range resid {
			resid[i] = b[i] - ax[i]
		}
	}
	return x, nil
}

const machEps = 2.220446049250313e-16

// matInfNorm returns ‖a‖∞, the largest row abs-sum, or 1 for an
// all-zero matrix (see infNorm).
func matInfNorm(a *Matrix) float64 {
	var mx float64
	for i := 0; i < a.Rows; i++ {
		if s := absSum(a.Row(i)); s > mx {
			mx = s
		}
	}
	return infNorm(mx)
}

// solvePassive solves the unconstrained least squares restricted to the
// passive columns, returning a full-length vector with zeros elsewhere.
func solvePassive(a *Matrix, b []float64, passive []bool) ([]float64, error) {
	n := a.Cols
	idx := make([]int, 0, n)
	for j := 0; j < n; j++ {
		if passive[j] {
			idx = append(idx, j)
		}
	}
	if len(idx) == 0 {
		return make([]float64, n), nil
	}
	sub := NewMatrix(a.Rows, len(idx))
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		srow := sub.Row(i)
		for k, j := range idx {
			srow[k] = row[j]
		}
	}
	// Tall-skinny systems (many source units, few references) solve far
	// faster through the k×k normal equations; fall back to Householder
	// QR when the Gram matrix is numerically rank deficient.
	var zs []float64
	var err error
	if sub.Rows > 8*sub.Cols {
		zs, err = SolveSPD(sub.Gram(), sub.MulVecT(b))
	}
	if zs == nil || err != nil {
		zs, err = LeastSquares(sub, b)
		if err != nil {
			return nil, err
		}
	}
	z := make([]float64, n)
	for k, j := range idx {
		z[j] = zs[k]
	}
	return z, nil
}
