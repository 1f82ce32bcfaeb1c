package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"geoalign/internal/linalg"
	"geoalign/internal/linalg/oracle"
)

// tallProblem builds a problem tall enough (ns ≫ 8k) that the dense
// NNLS passive-set solver stays on its normal-equations branch — the
// regime where the engine's Gram solver and the dense oracle must
// agree to 1e-9.
func tallProblem(rng *rand.Rand, ns, k int) Problem {
	return engineProblem(rng, ns, 6, k)
}

// denseSystem builds the Eq. 15 design matrix and right-hand side that
// the dense oracle solvers take, as references for the engine's
// Gram-form solve.
func denseSystem(t testing.TB, p Problem) (*linalg.Matrix, []float64) {
	t.Helper()
	cols := make([][]float64, len(p.References))
	for k, r := range p.References {
		cols[k] = maxNormalise(referenceSource(r))
	}
	a, err := linalg.MatrixFromColumns(cols)
	if err != nil {
		t.Fatal(err)
	}
	return a, maxNormalise(p.Objective)
}

// TestEngineGramMatchesDenseSolver compares the engine's Gram-form
// weights against the dense oracle.SimplexLeastSquares over
// randomized tall problems; the learned weights must agree to 1e-9
// absolute (β lives on the simplex, so absolute and relative coincide
// in scale), and so must the targets they induce.
func TestEngineGramMatchesDenseSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 30; trial++ {
		k := 2 + rng.Intn(4)
		ns := 8*(k+1) + 10 + rng.Intn(200)
		p := tallProblem(rng, ns, k)

		fast, err := NewEngine(p.References, Options{})
		if err != nil {
			t.Fatalf("trial %d: NewEngine: %v", trial, err)
		}
		bf, err := fast.LearnWeights(p.Objective)
		if err != nil {
			t.Fatalf("trial %d: gram LearnWeights: %v", trial, err)
		}
		a, b := denseSystem(t, p)
		bd, err := oracle.SimplexLeastSquares(a, b)
		if err != nil {
			t.Fatalf("trial %d: dense SimplexLeastSquares: %v", trial, err)
		}
		for j := range bd {
			if math.Abs(bf[j]-bd[j]) > 1e-9 {
				t.Fatalf("trial %d (ns=%d k=%d): β differs: gram %v dense %v", trial, ns, k, bf, bd)
			}
		}

		// The free function must agree with the engine bit for bit:
		// both route through the same Gram code path.
		free, err := LearnWeights(p)
		if err != nil {
			t.Fatalf("trial %d: free LearnWeights: %v", trial, err)
		}
		for j := range free {
			if free[j] != bf[j] {
				t.Fatalf("trial %d: free fn diverges from engine: %v vs %v", trial, free, bf)
			}
		}

		// Targets within 1e-9 relative of the dense weights' estimate.
		rf, err := fast.Align(p.Objective)
		if err != nil {
			t.Fatalf("trial %d: gram Align: %v", trial, err)
		}
		want := estimatedDM(t, p, &Result{Weights: bd}, nil).ColSums()
		for j := range want {
			if math.Abs(rf.Target[j]-want[j]) > 1e-9*(1+math.Abs(want[j])) {
				t.Fatalf("trial %d: target %d: gram %v dense %v", trial, j, rf.Target[j], want[j])
			}
		}
	}
}

// TestEngineDenseSolverAlignAll checks the warm-started batch solves
// against the dense oracle too, and that they stay bitwise identical
// to per-call Align.
func TestEngineDenseSolverAlignAll(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	p := tallProblem(rng, 120, 3)
	e, err := NewEngine(p.References, Options{})
	if err != nil {
		t.Fatal(err)
	}
	objectives := make([][]float64, 9)
	for a := range objectives {
		obj := make([]float64, 120)
		for i := range obj {
			obj[i] = rng.Float64() * 50
		}
		objectives[a] = obj
	}
	batch, err := e.AlignAll(objectives, 4)
	if err != nil {
		t.Fatal(err)
	}
	for a, obj := range objectives {
		want, err := e.Align(obj)
		if err != nil {
			t.Fatal(err)
		}
		resultsClose(t, fmt.Sprintf("objective %d", a), batch[a], want, 0)
		m, b := denseSystem(t, Problem{Objective: obj, References: p.References})
		bd, err := oracle.SimplexLeastSquares(m, b)
		if err != nil {
			t.Fatal(err)
		}
		for j := range bd {
			if math.Abs(batch[a].Weights[j]-bd[j]) > 1e-9 {
				t.Fatalf("objective %d: β differs: batch %v dense %v", a, batch[a].Weights, bd)
			}
		}
	}
}

// TestEngineBatchWarmStartStress hammers the warm-started batch path
// with many objectives over several worker counts; every result must be
// bit-identical to the sequential cold-started solve. Run under -race
// in CI, this also exercises the shared GramSystem for data races.
func TestEngineBatchWarmStartStress(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for _, cfg := range []struct{ ns, k, n int }{
		{60, 2, 40},
		{200, 5, 64},
		{35, 4, 25},
	} {
		p := engineProblem(rng, cfg.ns, 9, cfg.k)
		e, err := NewEngine(p.References, Options{})
		if err != nil {
			t.Fatal(err)
		}
		objectives := make([][]float64, cfg.n)
		for a := range objectives {
			obj := make([]float64, cfg.ns)
			for i := range obj {
				obj[i] = rng.Float64() * 300
				if rng.Intn(12) == 0 {
					obj[i] = 0
				}
			}
			objectives[a] = obj
		}
		want := make([]*Result, cfg.n)
		for a, obj := range objectives {
			want[a], err = e.Align(obj)
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, workers := range []int{1, 2, 7, 16} {
			batch, err := e.AlignAll(objectives, workers)
			if err != nil {
				t.Fatalf("ns=%d k=%d workers=%d: %v", cfg.ns, cfg.k, workers, err)
			}
			for a := range objectives {
				resultsClose(t, fmt.Sprintf("ns=%d k=%d workers=%d objective %d", cfg.ns, cfg.k, workers, a), batch[a], want[a], 0)
			}
		}
	}
}

// TestEnginePGGramMatchesDensePG compares the engine's active-set
// weights against the dense active-set oracle on short, narrow
// problems (100–199 source units, 2–4 references).
func TestEnginePGGramMatchesDensePG(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	for trial := 0; trial < 10; trial++ {
		k := 2 + rng.Intn(3)
		p := tallProblem(rng, 100+rng.Intn(100), k)
		e, err := NewEngine(p.References, Options{})
		if err != nil {
			t.Fatal(err)
		}
		bf, err := e.LearnWeights(p.Objective)
		if err != nil {
			t.Fatal(err)
		}
		a, b := denseSystem(t, p)
		bd, err := oracle.SimplexLeastSquares(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for j := range bd {
			if math.Abs(bf[j]-bd[j]) > 1e-9 {
				t.Fatalf("trial %d: β differs: engine %v dense %v", trial, bf, bd)
			}
		}
	}
}
