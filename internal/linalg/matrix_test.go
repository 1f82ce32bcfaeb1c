package linalg_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"geoalign/internal/linalg"
	"geoalign/internal/linalg/oracle"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func vecAlmostEq(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !almostEq(a[i], b[i], tol) {
			return false
		}
	}
	return true
}

func TestNewMatrixZeroed(t *testing.T) {
	m := linalg.NewMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 {
		t.Fatalf("dims = %dx%d, want 3x4", m.Rows, m.Cols)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("At(%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestMatrixSetAt(t *testing.T) {
	m := linalg.NewMatrix(2, 3)
	m.Set(1, 2, 7.5)
	m.Set(0, 0, -1)
	if got := m.At(1, 2); got != 7.5 {
		t.Errorf("At(1,2) = %v, want 7.5", got)
	}
	if got := m.At(0, 0); got != -1 {
		t.Errorf("At(0,0) = %v, want -1", got)
	}
	if got := m.At(0, 2); got != 0 {
		t.Errorf("At(0,2) = %v, want 0", got)
	}
}

func TestMatrixBoundsPanic(t *testing.T) {
	m := linalg.NewMatrix(2, 2)
	for _, tc := range []struct{ r, c int }{{-1, 0}, {0, -1}, {2, 0}, {0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d,%d) did not panic", tc.r, tc.c)
				}
			}()
			m.At(tc.r, tc.c)
		}()
	}
}

func TestMatrixFromRows(t *testing.T) {
	m, err := oracle.MatrixFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("dims = %dx%d, want 3x2", m.Rows, m.Cols)
	}
	if m.At(2, 1) != 6 {
		t.Errorf("At(2,1) = %v, want 6", m.At(2, 1))
	}
}

func TestMatrixFromRowsRagged(t *testing.T) {
	if _, err := oracle.MatrixFromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged rows accepted")
	}
}

func TestMatrixFromColumns(t *testing.T) {
	m, err := linalg.MatrixFromColumns([][]float64{{1, 2, 3}, {4, 5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("dims = %dx%d, want 3x2", m.Rows, m.Cols)
	}
	want := [][]float64{{1, 4}, {2, 5}, {3, 6}}
	for i := range want {
		for j := range want[i] {
			if m.At(i, j) != want[i][j] {
				t.Errorf("At(%d,%d) = %v, want %v", i, j, m.At(i, j), want[i][j])
			}
		}
	}
}

func TestMatrixFromColumnsRagged(t *testing.T) {
	if _, err := linalg.MatrixFromColumns([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged columns accepted")
	}
}

func TestTranspose(t *testing.T) {
	m, _ := oracle.MatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := oracle.T(m)
	if mt.Rows != 3 || mt.Cols != 2 {
		t.Fatalf("T dims = %dx%d, want 3x2", mt.Rows, mt.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != mt.At(j, i) {
				t.Errorf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	m, _ := oracle.MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	got := oracle.MulVec(m, []float64{5, 6})
	if !vecAlmostEq(got, []float64{17, 39}, 1e-12) {
		t.Errorf("MulVec = %v, want [17 39]", got)
	}
}

func TestMulVecT(t *testing.T) {
	m, _ := oracle.MatrixFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	got := oracle.MulVecT(m, []float64{1, 1, 1})
	if !vecAlmostEq(got, []float64{9, 12}, 1e-12) {
		t.Errorf("MulVecT = %v, want [9 12]", got)
	}
}

func TestMatMul(t *testing.T) {
	a, _ := oracle.MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := oracle.MatrixFromRows([][]float64{{5, 6}, {7, 8}})
	c := oracle.Mul(a, b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Errorf("Mul At(%d,%d) = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestGramMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := linalg.NewMatrix(7, 4)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	g := oracle.Gram(a)
	g2 := oracle.Mul(oracle.T(a), a)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if !almostEq(g.At(i, j), g2.At(i, j), 1e-12) {
				t.Errorf("Gram(%d,%d) = %v, explicit %v", i, j, g.At(i, j), g2.At(i, j))
			}
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	m, _ := oracle.MatrixFromRows([][]float64{{1, 2}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Error("Clone shares storage with the original")
	}
}

func TestDotNorm(t *testing.T) {
	if got := oracle.Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	if got := linalg.Norm2([]float64{3, 4}); !almostEq(got, 5, 1e-12) {
		t.Errorf("Norm2 = %v, want 5", got)
	}
	if got := linalg.Norm2(nil); got != 0 {
		t.Errorf("Norm2(nil) = %v, want 0", got)
	}
}

func TestNorm2Overflow(t *testing.T) {
	big := 1e300
	got := linalg.Norm2([]float64{big, big})
	want := big * math.Sqrt2
	if math.IsInf(got, 0) || !almostEq(got/want, 1, 1e-12) {
		t.Errorf("Norm2 overflow-guard failed: got %v want %v", got, want)
	}
}

func TestAxpyScaleSubSum(t *testing.T) {
	y := []float64{1, 1}
	oracle.Axpy(2, []float64{3, 4}, y)
	if !vecAlmostEq(y, []float64{7, 9}, 0) {
		t.Errorf("Axpy = %v", y)
	}
	linalg.Scale(0.5, y)
	if !vecAlmostEq(y, []float64{3.5, 4.5}, 0) {
		t.Errorf("Scale = %v", y)
	}
	d := oracle.Sub([]float64{5, 5}, y)
	if !vecAlmostEq(d, []float64{1.5, 0.5}, 0) {
		t.Errorf("Sub = %v", d)
	}
	if linalg.Sum(d) != 2 {
		t.Errorf("Sum = %v, want 2", linalg.Sum(d))
	}
	if linalg.MaxAbs([]float64{-3, 2}) != 3 {
		t.Errorf("MaxAbs = %v, want 3", linalg.MaxAbs([]float64{-3, 2}))
	}
}

func TestQRSolvesExactSystem(t *testing.T) {
	a, _ := oracle.MatrixFromRows([][]float64{{2, 1}, {1, 3}})
	x, err := oracle.LeastSquares(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(x, []float64{1, 3}, 1e-10) {
		t.Errorf("x = %v, want [1 3]", x)
	}
}

func TestQROverdetermined(t *testing.T) {
	// Fit y = 2 + 3t at t = 0..4 exactly.
	rows := make([][]float64, 5)
	b := make([]float64, 5)
	for i := 0; i < 5; i++ {
		ti := float64(i)
		rows[i] = []float64{1, ti}
		b[i] = 2 + 3*ti
	}
	a, _ := oracle.MatrixFromRows(rows)
	x, err := oracle.LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(x, []float64{2, 3}, 1e-9) {
		t.Errorf("x = %v, want [2 3]", x)
	}
}

func TestQRSingular(t *testing.T) {
	a, _ := oracle.MatrixFromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	if _, err := oracle.LeastSquares(a, []float64{1, 2, 3}); err == nil {
		t.Fatal("singular system solved without error")
	}
}

func TestQRUnderdeterminedRejected(t *testing.T) {
	a, _ := oracle.MatrixFromRows([][]float64{{1, 2, 3}})
	if _, err := oracle.QRFactor(a); err == nil {
		t.Fatal("QRFactor accepted rows < cols")
	}
}

func TestQRResidualOrthogonality(t *testing.T) {
	// For least squares, Aᵀ(Ax−b) must vanish.
	rng := rand.New(rand.NewSource(7))
	a := linalg.NewMatrix(20, 5)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	b := make([]float64, 20)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x, err := oracle.LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	r := oracle.Sub(oracle.MulVec(a, x), b)
	g := oracle.MulVecT(a, r)
	if linalg.MaxAbs(g) > 1e-9 {
		t.Errorf("gradient not zero at LS solution: %v", g)
	}
}

func TestCholeskySolve(t *testing.T) {
	// A = LLᵀ with A symmetric positive definite.
	a, _ := oracle.MatrixFromRows([][]float64{
		{4, 2, 0},
		{2, 5, 1},
		{0, 1, 3},
	})
	x, err := oracle.SolveSPD(a, []float64{8, 13, 7})
	if err != nil {
		t.Fatal(err)
	}
	back := oracle.MulVec(a, x)
	if !vecAlmostEq(back, []float64{8, 13, 7}, 1e-10) {
		t.Errorf("A·x = %v, want [8 13 7]", back)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a, _ := oracle.MatrixFromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := linalg.Cholesky(a); err == nil {
		t.Fatal("Cholesky accepted an indefinite matrix")
	}
}

func TestCholeskyRejectsNonSquare(t *testing.T) {
	if _, err := linalg.Cholesky(linalg.NewMatrix(2, 3)); err == nil {
		t.Fatal("Cholesky accepted a non-square matrix")
	}
}

// Property: QR least-squares solution matches the normal-equation
// solution on random well-conditioned problems.
func TestQRMatchesNormalEquationsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 8 + rng.Intn(20)
		n := 2 + rng.Intn(5)
		a := linalg.NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		// Diagonal boost keeps the Gram matrix well conditioned.
		for j := 0; j < n; j++ {
			a.Set(j, j, a.At(j, j)+3)
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x1, err := oracle.LeastSquares(a, b)
		if err != nil {
			return false
		}
		x2, err := oracle.SolveSPD(oracle.Gram(a), oracle.MulVecT(a, b))
		if err != nil {
			return false
		}
		return vecAlmostEq(x1, x2, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMatrixString(t *testing.T) {
	m, _ := oracle.MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	if got := m.String(); got != "2x2[1 2; 3 4]" {
		t.Errorf("String() = %q", got)
	}
}
