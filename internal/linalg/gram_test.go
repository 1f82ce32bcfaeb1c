package linalg

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// randTall builds a random m×k design matrix with non-negative entries
// (GeoAlign's reference columns are normalised aggregates) and a random
// right-hand side. Tall systems (m > 8k) keep the dense NNLS passive-set
// solver on its normal-equations branch, which is the regime the Gram
// solvers must reproduce to high accuracy.
func randTall(rng *rand.Rand, m, k int) (*Matrix, []float64) {
	a := NewMatrix(m, k)
	for i := range a.Data {
		a.Data[i] = rng.Float64()
	}
	b := make([]float64, m)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return a, b
}

// lsObjective evaluates ½‖A·x − b‖² via the normal equations so it can
// be computed for both dense and Gram solutions on equal footing.
func lsObjective(a *Matrix, b, x []float64) float64 {
	r := a.MulVec(x)
	for i := range r {
		r[i] -= b[i]
	}
	n := Norm2(r)
	return 0.5 * n * n
}

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale == 0 {
		return d
	}
	return d / scale
}

func TestNNLSGramMatchesDenseTall(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		k := 2 + rng.Intn(7)
		m := 8*k + 1 + rng.Intn(200)
		a, b := randTall(rng, m, k)

		dense, err := NNLS(a, b)
		if err != nil {
			t.Fatalf("trial %d: dense NNLS: %v", trial, err)
		}
		g := a.Gram()
		c := a.MulVecT(b)
		tol := GramTolerance(matInfNorm(a), Norm2(b), k)
		gram, err := NNLSGramWarm(g, c, tol, nil)
		if err != nil {
			t.Fatalf("trial %d: NNLSGramWarm: %v", trial, err)
		}
		scale := 1 + MaxAbs(dense)
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

		dense, err := NNLS(a, b)
		if err != nil {
			t.Fatalf("trial %d: dense NNLS: %v", trial, err)
		}
		tol := GramTolerance(matInfNorm(a), Norm2(b), k)
		gram, err := NNLSGramWarm(a.Gram(), a.MulVecT(b), tol, nil)
		if err != nil {
			t.Fatalf("trial %d: NNLSGramWarm: %v", trial, err)
		}
		// Near-duplicate columns make individual coefficients
		// non-unique; the objective value is the well-posed quantity.
		od, og := lsObjective(a, b, dense), lsObjective(a, b, gram)
		if relDiff(od, og) > 1e-9 {
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

		dense, err := SimplexLeastSquares(a, b)
		if err != nil {
			t.Fatalf("trial %d: dense: %v", trial, err)
		}
		gram, err := SimplexLeastSquaresGramWarm(a.Gram(), a.MulVecT(b), matInfNorm(a), Norm2(b), nil)
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

		dense, err := SimplexLeastSquares(a, b)
		if err != nil {
			t.Fatalf("trial %d: dense: %v", trial, err)
		}
		gram, err := SimplexLeastSquaresGramWarm(a.Gram(), a.MulVecT(b), matInfNorm(a), Norm2(b), nil)
		if err != nil {
			t.Fatalf("trial %d: gram: %v", trial, err)
		}
		od, og := lsObjective(a, b, dense), lsObjective(a, b, gram)
		if relDiff(od, og) > 1e-9 {
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
		g := a.Gram()
		c := a.MulVecT(b)
		ainf, bnorm := matInfNorm(a), Norm2(b)

		cold, err := SimplexLeastSquaresGramWarm(g, c, ainf, bnorm, nil)
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
			warm, err := SimplexLeastSquaresGramWarm(g, c, ainf, bnorm, seed)
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
	mk := func(rows ...[]float64) *Matrix {
		m, err := MatrixFromRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	cases := []struct {
		name string
		a    *Matrix
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
			dense, err := SimplexLeastSquares(tc.a, tc.b)
			if err != nil {
				t.Fatalf("dense: %v", err)
			}
			gram, err := SimplexLeastSquaresGramWarm(tc.a.Gram(), tc.a.MulVecT(tc.b), matInfNorm(tc.a), Norm2(tc.b), nil)
			if err != nil {
				t.Fatalf("gram: %v", err)
			}
			if len(gram) != len(dense) {
				t.Fatalf("length mismatch: dense %v gram %v", dense, gram)
			}
			od, og := lsObjective(tc.a, tc.b, dense), lsObjective(tc.a, tc.b, gram)
			if relDiff(od, og) > 1e-9 {
				t.Fatalf("objective mismatch: dense %.15g (%v) gram %.15g (%v)", od, dense, og, gram)
			}
			if !onSimplex(gram, 1e-12) {
				t.Fatalf("gram solution off simplex: %v", gram)
			}
		})
	}

	if _, err := SimplexLeastSquaresGramWarm(NewMatrix(0, 0), nil, 0, 0, nil); err != ErrNoColumns {
		t.Fatalf("k=0 should return ErrNoColumns, got %v", err)
	}
	if got, err := SimplexLeastSquaresGramWarm(NewMatrix(1, 1), []float64{5}, 1, 1, nil); err != nil || len(got) != 1 || got[0] != 1 {
		t.Fatalf("k=1 fast path: got %v, %v", got, err)
	}
	if x, err := NNLSGramWarm(NewMatrix(0, 0), nil, 0, nil); err != nil || x != nil {
		t.Fatalf("empty NNLSGramWarm: got %v, %v", x, err)
	}
}

func TestGramSystemGramMatchesGram(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for _, m := range []int{0, 1, 100, GramBlockRows, GramBlockRows + 1, 3*GramBlockRows + 17, 4*GramBlockRows + 999} {
		k := 1 + rng.Intn(8)
		a := NewMatrix(m, k)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		want := a.Gram()
		got := NewGramSystem(a).Gram()
		if got.Rows != k || got.Cols != k {
			t.Fatalf("m=%d: Gram shape %dx%d", m, got.Rows, got.Cols)
		}
		for i := range want.Data {
			// The block reduction regroups the row sums, so allow
			// rounding-level divergence from the single-pass Gram.
			if relDiff(want.Data[i], got.Data[i]) > 1e-12 {
				t.Fatalf("m=%d k=%d: entry %d: single-pass %v blocked %v", m, k, i, want.Data[i], got.Data[i])
			}
		}
	}
}

// blockPartialSums is the oracle for the blocked kernels' arithmetic
// order: for each output slot, every GramBlockRows-row block's terms
// are summed in row order from zero, and the block partials are then
// added in block order. term(i, j) returns row i's term for slot j and
// whether it counts (zero entries are skipped, as the kernels do).
func blockPartialSums(m, n int, term func(i, j int) (float64, bool)) []float64 {
	out := make([]float64, n)
	for j := range out {
		for lo := 0; lo < m; lo += GramBlockRows {
			var part float64
			for i := lo; i < m && i < lo+GramBlockRows; i++ {
				if v, ok := term(i, j); ok {
					part += v
				}
			}
			out[j] += part
		}
	}
	return out
}

// TestGramSystemGramBlockOrder pins G's bits to the block-partial
// reduction, which snapshot bytes and every solve depend on.
func TestGramSystemGramBlockOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	m, k := 4*GramBlockRows+321, 5
	a := NewMatrix(m, k)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
		if rng.Intn(6) == 0 {
			a.Data[i] = 0
		}
	}
	want := blockPartialSums(m, k*k, func(i, t int) (float64, bool) {
		p, q := t/k, t%k
		if q < p {
			p, q = q, p // the kernel sums the upper triangle and mirrors it
		}
		vp := a.At(i, p)
		return vp * a.At(i, q), vp != 0
	})
	got := NewGramSystem(a).Gram()
	for i := range want {
		if got.Data[i] != want[i] {
			t.Fatalf("G entry %d = %v, block-order sum %v", i, got.Data[i], want[i])
		}
	}
}

func TestApplyTIntoMatchesMulVecT(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, m := range []int{1, 57, GramBlockRows, GramBlockRows + 1, 2*GramBlockRows + 300, 4*GramBlockRows + 123} {
		k := 1 + rng.Intn(7)
		a := NewMatrix(m, k)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
			if rng.Intn(10) == 0 {
				a.Data[i] = 0
			}
		}
		gs := NewGramSystem(a)
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
			if rng.Intn(8) == 0 {
				b[i] = 0
			}
		}
		want := a.MulVecT(b)
		got := make([]float64, k)
		gs.ApplyTInto(got, b)
		// The blocked reduction regroups sums; rounding-level agreement.
		for j := range want {
			if relDiff(want[j], got[j]) > 1e-12 {
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

// TestApplyTIntoBlockOrder pins c = Aᵀb's bits to the block-partial
// reduction, including systems wider than one applyTChunk pass.
func TestApplyTIntoBlockOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for _, k := range []int{1, 7, applyTChunk, applyTChunk + 1, 2*applyTChunk + 5} {
		m := 3*GramBlockRows + 17
		a := NewMatrix(m, k)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		b := make([]float64, m)
		for i := range b {
			if rng.Intn(8) != 0 {
				b[i] = rng.NormFloat64()
			}
		}
		want := blockPartialSums(m, k, func(i, j int) (float64, bool) {
			return a.At(i, j) * b[i], b[i] != 0
		})
		got := make([]float64, k)
		NewGramSystem(a).ApplyTInto(got, b)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("k=%d: component %d = %v, block-order sum %v", k, j, got[j], want[j])
			}
		}
	}
}

// TestApplyTIntoAllocationFree pins the per-solve product at zero
// allocations over several blocks, for narrow and multi-pass widths.
func TestApplyTIntoAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(89))
	for _, k := range []int{7, 2*applyTChunk + 5} {
		m := 3*GramBlockRows + 17
		a := NewMatrix(m, k)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		gs := NewGramSystem(a)
		dst := make([]float64, k)
		if allocs := testing.AllocsPerRun(20, func() { gs.ApplyTInto(dst, b) }); allocs != 0 {
			t.Errorf("k=%d: ApplyTInto made %.1f allocs/op, want 0", k, allocs)
		}
	}
}

func TestGramSystemSimplexLS(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 20; trial++ {
		k := 2 + rng.Intn(6)
		m := 8*(k+1) + 1 + rng.Intn(300)
		a, b := randTall(rng, m, k)
		gs := NewGramSystem(a)
		if gs.Rows() != m || gs.Cols() != k {
			t.Fatalf("GramSystem dims %dx%d, want %dx%d", gs.Rows(), gs.Cols(), m, k)
		}

		dense, err := SimplexLeastSquares(a, b)
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

		pg, err := SimplexLeastSquaresPG(a, b, 4000, 1e-13)
		if err != nil {
			t.Fatalf("trial %d: SimplexLeastSquaresPG: %v", trial, err)
		}
		of, og := lsObjective(a, b, fast), lsObjective(a, b, pg)
		// FISTA converges to the same optimum but stops on a step-size
		// criterion; allow a looser objective agreement.
		if relDiff(of, og) > 1e-6 {
			t.Fatalf("trial %d: PG objective %.15g vs Gram active set %.15g", trial, og, of)
		}
	}

	gs := NewGramSystem(NewMatrix(3, 0))
	if _, err := gs.SimplexLS([]float64{1, 2, 3}, nil); err != ErrNoColumns {
		t.Fatalf("k=0 SimplexLS: want ErrNoColumns, got %v", err)
	}
	gs1 := NewGramSystem(NewMatrix(4, 1))
	if got, err := gs1.SimplexLS([]float64{1, 2, 3, 4}, nil); err != nil || len(got) != 1 || got[0] != 1 {
		t.Fatalf("k=1 SimplexLS: got %v, %v", got, err)
	}
	if _, err := gs1.SimplexLS([]float64{1}, nil); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestProjectSimplexConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	inputs := make([][]float64, 64)
	want := make([][]float64, len(inputs))
	for i := range inputs {
		n := 1 + rng.Intn(40)
		v := make([]float64, n)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		inputs[i] = v
		w := make([]float64, n)
		copy(w, v)
		scratch := make([]float64, n)
		projectSimplexInto(w, scratch)
		want[i] = w
	}
	var wg sync.WaitGroup
	for rep := 0; rep < 8; rep++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, v := range inputs {
				got := make([]float64, len(v))
				copy(got, v)
				ProjectSimplex(got)
				for j := range got {
					if got[j] != want[i][j] {
						t.Errorf("input %d: pooled projection differs at %d", i, j)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
