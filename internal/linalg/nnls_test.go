package linalg_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"geoalign/internal/linalg"
	"geoalign/internal/linalg/oracle"
)

func TestNNLSUnconstrainedInterior(t *testing.T) {
	// Solution of the unconstrained LS is positive, so NNLS must match it.
	a, _ := oracle.MatrixFromRows([][]float64{{1, 0}, {0, 1}, {1, 1}})
	b := []float64{1, 2, 3}
	x, err := oracle.NNLS(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := oracle.LeastSquares(a, b)
	if !vecAlmostEq(x, want, 1e-8) {
		t.Errorf("x = %v, want %v", x, want)
	}
}

func TestNNLSClampsNegative(t *testing.T) {
	// Unconstrained solution has a negative component; NNLS must zero it.
	a, _ := oracle.MatrixFromRows([][]float64{{1, 1}, {1, 1.0001}})
	b := []float64{1, 0.5}
	x, err := oracle.NNLS(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range x {
		if v < 0 {
			t.Errorf("x[%d] = %v < 0", j, v)
		}
	}
}

func TestNNLSZeroRHS(t *testing.T) {
	a, _ := oracle.MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	x, err := oracle.NNLS(a, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(x, []float64{0, 0}, 1e-12) {
		t.Errorf("x = %v, want zeros", x)
	}
}

func TestNNLSNegativeOrthantRHS(t *testing.T) {
	// b in the negative orthant, A non-negative: optimum is x = 0.
	a, _ := oracle.MatrixFromRows([][]float64{{1, 2}, {2, 1}})
	x, err := oracle.NNLS(a, []float64{-1, -1})
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(x, []float64{0, 0}, 1e-12) {
		t.Errorf("x = %v, want zeros", x)
	}
}

func TestNNLSEmptyColumns(t *testing.T) {
	x, err := oracle.NNLS(linalg.NewMatrix(3, 0), []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(x) != 0 {
		t.Errorf("x = %v, want empty", x)
	}
}

func TestNNLSDimensionMismatch(t *testing.T) {
	if _, err := oracle.NNLS(linalg.NewMatrix(3, 2), []float64{1, 2}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestNNLSCollinearColumns(t *testing.T) {
	// Duplicated column: any split between the two is optimal; result
	// must be feasible and fit as well as a single-column solve.
	a, _ := oracle.MatrixFromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	b := []float64{2, 4, 6}
	x, err := oracle.NNLS(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range x {
		if v < 0 {
			t.Fatalf("x[%d] = %v < 0", j, v)
		}
	}
	r := oracle.Sub(oracle.MulVec(a, x), b)
	if linalg.Norm2(r) > 1e-8 {
		t.Errorf("residual %v too large for consistent system", linalg.Norm2(r))
	}
}

// nnlsKKT verifies the KKT conditions for a candidate NNLS solution:
// x >= 0, grad >= -tol on the zero set, |grad| <= tol on the support.
func nnlsKKT(a *linalg.Matrix, b, x []float64, tol float64) bool {
	r := oracle.Sub(oracle.MulVec(a, x), b)
	g := oracle.MulVecT(a, r)
	for j, v := range x {
		if v < 0 {
			return false
		}
		if v > tol {
			if math.Abs(g[j]) > tol {
				return false
			}
		} else if g[j] < -tol {
			return false
		}
	}
	return true
}

func TestNNLSKKTRandomQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 5 + rng.Intn(25)
		n := 2 + rng.Intn(6)
		a := linalg.NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64() * 3
		}
		x, err := oracle.NNLS(a, b)
		if err != nil {
			return false
		}
		scale := oracle.InfNorm(a) * (linalg.Norm2(b) + 1)
		return nnlsKKT(a, b, x, 1e-6*scale)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestNNLSRecoversPlantedSolution(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m, n := 40, 6
	a := linalg.NewMatrix(m, n)
	for i := range a.Data {
		a.Data[i] = math.Abs(rng.NormFloat64())
	}
	want := []float64{0.5, 0, 1.5, 0, 2, 0}
	b := oracle.MulVec(a, want)
	x, err := oracle.NNLS(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(x, want, 1e-6) {
		t.Errorf("x = %v, want %v", x, want)
	}
}
