package linalg_test

import (
	"math"
	"math/rand"
	"testing"

	"geoalign/internal/linalg"
	"geoalign/internal/linalg/oracle"
)

// randTall builds a random m×k design matrix with non-negative entries
// (GeoAlign's reference columns are normalised aggregates) and a random
// right-hand side. Tall systems (m > 8k) keep the dense NNLS passive-set
// solver on its normal-equations branch, which is the regime the Gram
// solvers must reproduce to high accuracy.
func randTall(rng *rand.Rand, m, k int) (*linalg.Matrix, []float64) {
	a := linalg.NewMatrix(m, k)
	for i := range a.Data {
		a.Data[i] = rng.Float64()
	}
	b := make([]float64, m)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return a, b
}

func TestNNLSGramMatchesDenseTall(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		k := 2 + rng.Intn(7)
		m := 8*k + 1 + rng.Intn(200)
		a, b := randTall(rng, m, k)

		dense, err := oracle.NNLS(a, b)
		if err != nil {
			t.Fatalf("trial %d: dense NNLS: %v", trial, err)
		}
		g := oracle.Gram(a)
		c := oracle.MulVecT(a, b)
		tol := linalg.GramTolerance(oracle.InfNorm(a), linalg.Norm2(b), k)
		gram, err := linalg.NNLSGramWarm(g, c, tol, nil)
		if err != nil {
			t.Fatalf("trial %d: NNLSGramWarm: %v", trial, err)
		}
		scale := 1 + linalg.MaxAbs(dense)
		for j := range dense {
			if math.Abs(dense[j]-gram[j]) > 1e-9*scale {
				t.Fatalf("trial %d (m=%d k=%d): component %d differs: dense %v gram %v",
					trial, m, k, j, dense, gram)
			}
		}
	}
}

func TestNNLSGramIllConditioned(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 25; trial++ {
		k := 3 + rng.Intn(4)
		m := 8*k + 1 + rng.Intn(100)
		a, b := randTall(rng, m, k)
		// Make two columns nearly collinear so the passive-set Gram
		// blocks are badly conditioned.
		for i := 0; i < m; i++ {
			a.Set(i, 1, a.At(i, 0)*(1+1e-7*rng.Float64()))
		}

		dense, err := oracle.NNLS(a, b)
		if err != nil {
			t.Fatalf("trial %d: dense NNLS: %v", trial, err)
		}
		tol := linalg.GramTolerance(oracle.InfNorm(a), linalg.Norm2(b), k)
		gram, err := linalg.NNLSGramWarm(oracle.Gram(a), oracle.MulVecT(a, b), tol, nil)
		if err != nil {
			t.Fatalf("trial %d: NNLSGramWarm: %v", trial, err)
		}
		// Near-duplicate columns make individual coefficients
		// non-unique; the objective value is the well-posed quantity.
		od, og := linalg.LSObjective(a, b, dense), linalg.LSObjective(a, b, gram)
		if linalg.RelDiff(od, og) > 1e-9 {
			t.Fatalf("trial %d: objective mismatch: dense %.15g gram %.15g", trial, od, og)
		}
		for j, v := range gram {
			if v < 0 {
				t.Fatalf("trial %d: gram solution infeasible at %d: %v", trial, j, gram)
			}
		}
	}
}

func TestSimplexLSGramMatchesDenseTall(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 40; trial++ {
		k := 2 + rng.Intn(7)
		m := 8*(k+1) + 1 + rng.Intn(200)
		a, b := randTall(rng, m, k)

		dense, err := oracle.SimplexLeastSquares(a, b)
		if err != nil {
			t.Fatalf("trial %d: dense: %v", trial, err)
		}
		gram, err := linalg.SimplexLeastSquaresGramWarm(oracle.Gram(a), oracle.MulVecT(a, b), oracle.InfNorm(a), linalg.Norm2(b), nil)
		if err != nil {
			t.Fatalf("trial %d: gram: %v", trial, err)
		}
		if !onSimplex(gram, 1e-12) {
			t.Fatalf("trial %d: gram solution off simplex: %v", trial, gram)
		}
		for j := range dense {
			if math.Abs(dense[j]-gram[j]) > 1e-9 {
				t.Fatalf("trial %d (m=%d k=%d): β differs at %d: dense %v gram %v",
					trial, a.Rows, k, j, dense, gram)
			}
		}
	}
}

func TestSimplexLSGramIllConditioned(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 25; trial++ {
		k := 3 + rng.Intn(4)
		m := 8*(k+1) + 1 + rng.Intn(100)
		a, b := randTall(rng, m, k)
		for i := 0; i < m; i++ {
			a.Set(i, 2, a.At(i, 1)*(1+1e-8*rng.Float64()))
		}

		dense, err := oracle.SimplexLeastSquares(a, b)
		if err != nil {
			t.Fatalf("trial %d: dense: %v", trial, err)
		}
		gram, err := linalg.SimplexLeastSquaresGramWarm(oracle.Gram(a), oracle.MulVecT(a, b), oracle.InfNorm(a), linalg.Norm2(b), nil)
		if err != nil {
			t.Fatalf("trial %d: gram: %v", trial, err)
		}
		od, og := linalg.LSObjective(a, b, dense), linalg.LSObjective(a, b, gram)
		if linalg.RelDiff(od, og) > 1e-9 {
			t.Fatalf("trial %d: objective mismatch: dense %.15g gram %.15g (β dense %v gram %v)",
				trial, od, og, dense, gram)
		}
		if !onSimplex(gram, 1e-12) {
			t.Fatalf("trial %d: gram solution off simplex: %v", trial, gram)
		}
	}
}

func TestSimplexLSGramWarmMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 30; trial++ {
		k := 2 + rng.Intn(7)
		m := 8*(k+1) + 1 + rng.Intn(150)
		a, b := randTall(rng, m, k)
		g := oracle.Gram(a)
		c := oracle.MulVecT(a, b)
		ainf, bnorm := oracle.InfNorm(a), linalg.Norm2(b)

		cold, err := linalg.SimplexLeastSquaresGramWarm(g, c, ainf, bnorm, nil)
		if err != nil {
			t.Fatalf("trial %d: cold: %v", trial, err)
		}
		// Warm-start from the cold solution itself, from a perturbed
		// copy, and from a deliberately wrong seed: all must land on
		// the same optimum.
		seeds := [][]float64{cold, make([]float64, k), make([]float64, k)}
		copy(seeds[1], cold)
		for j := range seeds[1] {
			seeds[1][j] = math.Max(0, seeds[1][j]+0.05*rng.NormFloat64())
		}
		for j := range seeds[2] {
			seeds[2][j] = rng.Float64()
		}
		for si, seed := range seeds {
			warm, err := linalg.SimplexLeastSquaresGramWarm(g, c, ainf, bnorm, seed)
			if err != nil {
				t.Fatalf("trial %d seed %d: warm: %v", trial, si, err)
			}
			for j := range cold {
				if math.Abs(cold[j]-warm[j]) > 1e-9 {
					t.Fatalf("trial %d seed %d: warm diverges: cold %v warm %v", trial, si, cold, warm)
				}
			}
		}
	}
}

func TestGramDegenerateCases(t *testing.T) {
	mk := func(rows ...[]float64) *linalg.Matrix {
		m, err := oracle.MatrixFromRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	cases := []struct {
		name string
		a    *linalg.Matrix
		b    []float64
	}{
		{"k=1", mk([]float64{2}, []float64{3}, []float64{1}), []float64{1, 2, 0.5}},
		{"zero b", mk([]float64{1, 2}, []float64{3, 4}, []float64{5, 6}), []float64{0, 0, 0}},
		{"b orthogonal to cone", mk([]float64{1, 0}, []float64{0, 1}, []float64{0, 0}), []float64{-1, -1, 0}},
		{"duplicate columns", mk([]float64{1, 1}, []float64{2, 2}, []float64{3, 3}), []float64{1, 2, 3}},
		{"zero matrix", mk([]float64{0, 0}, []float64{0, 0}, []float64{0, 0}), []float64{1, 2, 3}},
		{"rank deficient", mk([]float64{1, 2, 3}, []float64{2, 4, 6}, []float64{3, 6, 9}, []float64{1, 2, 3}), []float64{1, 1, 1, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dense, err := oracle.SimplexLeastSquares(tc.a, tc.b)
			if err != nil {
				t.Fatalf("dense: %v", err)
			}
			gram, err := linalg.SimplexLeastSquaresGramWarm(oracle.Gram(tc.a), oracle.MulVecT(tc.a, tc.b), oracle.InfNorm(tc.a), linalg.Norm2(tc.b), nil)
			if err != nil {
				t.Fatalf("gram: %v", err)
			}
			if len(gram) != len(dense) {
				t.Fatalf("length mismatch: dense %v gram %v", dense, gram)
			}
			od, og := linalg.LSObjective(tc.a, tc.b, dense), linalg.LSObjective(tc.a, tc.b, gram)
			if linalg.RelDiff(od, og) > 1e-9 {
				t.Fatalf("objective mismatch: dense %.15g (%v) gram %.15g (%v)", od, dense, og, gram)
			}
			if !onSimplex(gram, 1e-12) {
				t.Fatalf("gram solution off simplex: %v", gram)
			}
		})
	}

	if _, err := linalg.SimplexLeastSquaresGramWarm(linalg.NewMatrix(0, 0), nil, 0, 0, nil); err != linalg.ErrNoColumns {
		t.Fatalf("k=0 should return ErrNoColumns, got %v", err)
	}
	if got, err := linalg.SimplexLeastSquaresGramWarm(linalg.NewMatrix(1, 1), []float64{5}, 1, 1, nil); err != nil || len(got) != 1 || got[0] != 1 {
		t.Fatalf("k=1 fast path: got %v, %v", got, err)
	}
	if x, err := linalg.NNLSGramWarm(linalg.NewMatrix(0, 0), nil, 0, nil); err != nil || x != nil {
		t.Fatalf("empty NNLSGramWarm: got %v, %v", x, err)
	}
}

func TestGramSystemGramMatchesGram(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for _, m := range []int{0, 1, 100, linalg.GramBlockRows, linalg.GramBlockRows + 1, 3*linalg.GramBlockRows + 17, 4*linalg.GramBlockRows + 999} {
		k := 1 + rng.Intn(8)
		a := linalg.NewMatrix(m, k)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		want := oracle.Gram(a)
		got := linalg.NewGramSystem(a).Gram()
		if got.Rows != k || got.Cols != k {
			t.Fatalf("m=%d: Gram shape %dx%d", m, got.Rows, got.Cols)
		}
		for i := range want.Data {
			// The block reduction regroups the row sums, so allow
			// rounding-level divergence from the single-pass Gram.
			if linalg.RelDiff(want.Data[i], got.Data[i]) > 1e-12 {
				t.Fatalf("m=%d k=%d: entry %d: single-pass %v blocked %v", m, k, i, want.Data[i], got.Data[i])
			}
		}
	}
}

func TestApplyTIntoMatchesMulVecT(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, m := range []int{1, 57, linalg.GramBlockRows, linalg.GramBlockRows + 1, 2*linalg.GramBlockRows + 300, 4*linalg.GramBlockRows + 123} {
		k := 1 + rng.Intn(7)
		a := linalg.NewMatrix(m, k)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
			if rng.Intn(10) == 0 {
				a.Data[i] = 0
			}
		}
		gs := linalg.NewGramSystem(a)
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
			if rng.Intn(8) == 0 {
				b[i] = 0
			}
		}
		want := oracle.MulVecT(a, b)
		got := make([]float64, k)
		gs.ApplyTInto(got, b)
		// The blocked reduction regroups sums; rounding-level agreement.
		for j := range want {
			if linalg.RelDiff(want[j], got[j]) > 1e-12 {
				t.Fatalf("m=%d: component %d: MulVecT %v ApplyTInto %v", m, j, want[j], got[j])
			}
		}
		// Repeated calls must be bit-identical.
		again := make([]float64, k)
		gs.ApplyTInto(again, b)
		for j := range got {
			if got[j] != again[j] {
				t.Fatalf("m=%d: ApplyTInto not deterministic at %d", m, j)
			}
		}
	}
}

func TestGramSystemSimplexLS(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 20; trial++ {
		k := 2 + rng.Intn(6)
		m := 8*(k+1) + 1 + rng.Intn(300)
		a, b := randTall(rng, m, k)
		gs := linalg.NewGramSystem(a)
		if gs.Rows() != m || gs.Cols() != k {
			t.Fatalf("GramSystem dims %dx%d, want %dx%d", gs.Rows(), gs.Cols(), m, k)
		}

		dense, err := oracle.SimplexLeastSquares(a, b)
		if err != nil {
			t.Fatalf("trial %d: dense: %v", trial, err)
		}
		fast, err := gs.SimplexLS(b, nil)
		if err != nil {
			t.Fatalf("trial %d: SimplexLS: %v", trial, err)
		}
		for j := range dense {
			if math.Abs(dense[j]-fast[j]) > 1e-9 {
				t.Fatalf("trial %d: β differs: dense %v fast %v", trial, dense, fast)
			}
		}
		warm, err := gs.SimplexLS(b, fast)
		if err != nil {
			t.Fatalf("trial %d: warm SimplexLS: %v", trial, err)
		}
		for j := range fast {
			if math.Abs(fast[j]-warm[j]) > 1e-9 {
				t.Fatalf("trial %d: warm differs: %v vs %v", trial, fast, warm)
			}
		}
	}

	gs := linalg.NewGramSystem(linalg.NewMatrix(3, 0))
	if _, err := gs.SimplexLS([]float64{1, 2, 3}, nil); err != linalg.ErrNoColumns {
		t.Fatalf("k=0 SimplexLS: want ErrNoColumns, got %v", err)
	}
	gs1 := linalg.NewGramSystem(linalg.NewMatrix(4, 1))
	if got, err := gs1.SimplexLS([]float64{1, 2, 3, 4}, nil); err != nil || len(got) != 1 || got[0] != 1 {
		t.Fatalf("k=1 SimplexLS: got %v, %v", got, err)
	}
	if _, err := gs1.SimplexLS([]float64{1}, nil); err == nil {
		t.Fatal("length mismatch should error")
	}
}
