package oracle

import (
	"fmt"
	"math"

	"geoalign/internal/linalg"
)

// SimplexLeastSquares solves the weight-learning problem of GeoAlign
// (Eq. 15 of the paper):
//
//	min_β ½‖A·β − b‖₂²  subject to  Σ_k β_k = 1,  β_k ≥ 0
//
// i.e. least squares over the probability simplex. The equality
// constraint is enforced by augmenting the system with a heavily
// weighted row μ·1ᵀβ = μ and running Lawson–Hanson NNLS, after which β
// is renormalised so the constraint holds exactly. μ is chosen large
// relative to ‖A‖ so the augmentation perturbs the fit negligibly.
//
// Degenerate inputs are handled conservatively: a single column yields
// β = [1]; if NNLS returns the zero vector (b orthogonal to the cone),
// the uniform weights 1/k are returned.
func SimplexLeastSquares(a *linalg.Matrix, b []float64) ([]float64, error) {
	m, k := a.Rows, a.Cols
	if k == 0 {
		return nil, linalg.ErrNoColumns
	}
	if len(b) != m {
		return nil, fmt.Errorf("oracle: simplex LS vector length %d != rows %d", len(b), m)
	}
	if k == 1 {
		return []float64{1}, nil
	}

	mu := 1e4 * (InfNorm(a) + linalg.Norm2(b) + 1)
	aug := linalg.NewMatrix(m+1, k)
	copy(aug.Data, a.Data)
	for j := 0; j < k; j++ {
		aug.Set(m, j, mu)
	}
	baug := make([]float64, m+1)
	copy(baug, b)
	baug[m] = mu

	beta, err := NNLS(aug, baug)
	if err != nil {
		return nil, err
	}
	s := linalg.Sum(beta)
	if s <= 0 || math.IsNaN(s) {
		// b is orthogonal to every feasible direction; fall back to the
		// uninformative uniform combination.
		for j := range beta {
			beta[j] = 1 / float64(k)
		}
		return beta, nil
	}
	linalg.Scale(1/s, beta)
	return beta, nil
}
