package linalg_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"geoalign/internal/linalg"
	"geoalign/internal/linalg/oracle"
)

func onSimplex(x []float64, tol float64) bool {
	var s float64
	for _, v := range x {
		if v < -tol {
			return false
		}
		s += v
	}
	return math.Abs(s-1) <= tol
}

func TestSimplexLSSingleColumn(t *testing.T) {
	a, _ := linalg.MatrixFromColumns([][]float64{{1, 2, 3}})
	beta, err := oracle.SimplexLeastSquares(a, []float64{9, 9, 9})
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(beta, []float64{1}, 0) {
		t.Errorf("beta = %v, want [1]", beta)
	}
}

func TestSimplexLSNoColumns(t *testing.T) {
	if _, err := oracle.SimplexLeastSquares(linalg.NewMatrix(3, 0), []float64{1, 2, 3}); err != linalg.ErrNoColumns {
		t.Fatalf("err = %v, want ErrNoColumns", err)
	}
}

func TestSimplexLSDimensionMismatch(t *testing.T) {
	if _, err := oracle.SimplexLeastSquares(linalg.NewMatrix(3, 2), []float64{1}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestSimplexLSExactVertex(t *testing.T) {
	// b equals the second column exactly: the optimum is the vertex e2.
	cols := [][]float64{
		{1, 0, 0, 5},
		{0, 1, 0, 0},
		{0.2, 0.1, 1, 2},
	}
	a, _ := linalg.MatrixFromColumns(cols)
	beta, err := oracle.SimplexLeastSquares(a, []float64{0, 1, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !onSimplex(beta, 1e-9) {
		t.Fatalf("beta off simplex: %v", beta)
	}
	if !vecAlmostEq(beta, []float64{0, 1, 0}, 1e-6) {
		t.Errorf("beta = %v, want e2", beta)
	}
}

func TestSimplexLSExactMixture(t *testing.T) {
	// b is a known convex combination of the columns; the solver must
	// recover it when the columns are independent.
	rng := rand.New(rand.NewSource(3))
	m, k := 30, 4
	a := linalg.NewMatrix(m, k)
	for i := range a.Data {
		a.Data[i] = rng.Float64()
	}
	want := []float64{0.1, 0.4, 0.2, 0.3}
	b := oracle.MulVec(a, want)
	beta, err := oracle.SimplexLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !onSimplex(beta, 1e-8) {
		t.Fatalf("beta off simplex: %v", beta)
	}
	if !vecAlmostEq(beta, want, 1e-5) {
		t.Errorf("beta = %v, want %v", beta, want)
	}
}

func TestSimplexLSZeroObjective(t *testing.T) {
	// b = 0: any simplex point with minimal ‖Aβ‖ is fine, but the result
	// must at least be a valid simplex vector.
	a, _ := linalg.MatrixFromColumns([][]float64{{1, 0}, {0, 1}})
	beta, err := oracle.SimplexLeastSquares(a, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !onSimplex(beta, 1e-9) {
		t.Errorf("beta off simplex: %v", beta)
	}
}

func TestSimplexLSFeasibilityQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 6 + rng.Intn(30)
		k := 2 + rng.Intn(6)
		a := linalg.NewMatrix(m, k)
		for i := range a.Data {
			a.Data[i] = rng.Float64() // attribute-like non-negative cols
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.Float64()
		}
		beta, err := oracle.SimplexLeastSquares(a, b)
		if err != nil {
			return false
		}
		return onSimplex(beta, 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
