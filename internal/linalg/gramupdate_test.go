package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// maxAbsDiff returns max |a−b| over all elements.
func maxAbsDiff(a, b *Matrix) float64 {
	var mx float64
	for i, v := range a.Data {
		if d := math.Abs(v - b.Data[i]); d > mx {
			mx = d
		}
	}
	return mx
}

// applyRandomRowUpdates drives k random UpdateRow calls against a
// mutable clone of gs, returning the clone and the patched dense
// matrix. makeRow produces the replacement row for a given trial.
func applyRandomRowUpdates(gs *GramSystem, a *Matrix, rng *rand.Rand, updates int, makeRow func(i int) []float64) (*GramSystem, *Matrix) {
	patched := a.Clone()
	mut := gs.MutableClone(patched)
	for u := 0; u < updates; u++ {
		i := rng.Intn(a.Rows)
		mut.UpdateRow(i, makeRow(i))
	}
	mut.RefreshInfNorm()
	return mut, patched
}

// TestGramSolversAfterRowUpdates is the rebuild-equivalence property
// test for the solver layer: after k random row updates the warm NNLS
// and simplex solvers on the maintained system must agree with a cold
// solve on a GramSystem rebuilt from the patched dense matrix. Covers
// well- and ill-conditioned designs; the ill-conditioned case drives
// near-parallel columns, where the passive-set blocks are closest to
// singular.
func TestGramSolversAfterRowUpdates(t *testing.T) {
	for _, tc := range []struct {
		name string
		cond string
	}{
		{"well-conditioned", "well"},
		{"ill-conditioned", "ill"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(75))
			for trial := 0; trial < 30; trial++ {
				k := 2 + rng.Intn(6)
				m := 8*k + 1 + rng.Intn(120)
				a := NewMatrix(m, k)
				for i := 0; i < m; i++ {
					row := a.Row(i)
					base := rng.Float64()
					for j := range row {
						if tc.cond == "ill" {
							// Columns are tiny perturbations of one
							// shared column: condition number blows up.
							row[j] = base + 1e-8*rng.Float64()
						} else {
							row[j] = rng.Float64()
						}
					}
				}
				gs := NewGramSystem(a)
				updates := 1 + rng.Intn(2*k)
				mut, patched := applyRandomRowUpdates(gs, a, rng, updates, func(int) []float64 {
					row := make([]float64, k)
					for j := range row {
						row[j] = rng.Float64()
					}
					return row
				})

				cold := NewGramSystem(patched)
				b := make([]float64, m)
				for i := range b {
					b[i] = rng.NormFloat64()
				}

				// Maintained state must match the rebuilt state exactly
				// up to float accumulation: compare the Gram matrices.
				if d := maxAbsDiff(mut.Gram(), cold.Gram()); d > 1e-9*(1+matInfNorm(cold.Gram())) {
					t.Fatalf("trial %d: maintained Gram differs from rebuild by %g", trial, d)
				}
				if mut.AInf != cold.AInf {
					t.Fatalf("trial %d: maintained ‖A‖∞ %g != rebuilt %g", trial, mut.AInf, cold.AInf)
				}

				c := make([]float64, k)
				mut.ApplyTInto(c, b)
				tol := GramTolerance(mut.AInf, Norm2(b), k)
				warm := make([]float64, k)
				for j := range warm {
					warm[j] = 1 / float64(k)
				}
				got, err := NNLSGramWarm(mut.Gram(), c, tol, warm)
				if err != nil {
					t.Fatalf("trial %d: NNLSGramWarm: %v", trial, err)
				}
				want, err := NNLSGramWarm(cold.Gram(), c, tol, nil)
				if err != nil {
					t.Fatalf("trial %d: cold NNLSGramWarm: %v", trial, err)
				}
				// Both are KKT points of (numerically) the same problem:
				// compare objectives rather than coordinates, which can
				// differ on rank-deficient designs.
				og := lsObjective(patched, b, got)
				ow := lsObjective(patched, b, want)
				if relDiff(og, ow) > 1e-7 {
					t.Fatalf("trial %d: NNLS objective %g (maintained) vs %g (cold)", trial, og, ow)
				}

				gotS, err := mut.SimplexLS(b, warm)
				if err != nil {
					t.Fatalf("trial %d: maintained SimplexLS: %v", trial, err)
				}
				wantS, err := cold.SimplexLS(b, nil)
				if err != nil {
					t.Fatalf("trial %d: cold SimplexLS: %v", trial, err)
				}
				os, osC := lsObjective(patched, b, gotS), lsObjective(patched, b, wantS)
				if relDiff(os, osC) > 1e-7 {
					t.Fatalf("trial %d: simplex objective %g (maintained) vs %g (cold)", trial, os, osC)
				}
			}
		})
	}
}

// TestUpdateRowRankCollapse drives a maintained system through a rank
// collapse — every row but the first zeroed, so G becomes rank one —
// and back to full rank, checking after each phase that the maintained
// G matches a rebuild from the patched design and that the simplex
// solver on it reaches the rebuilt system's objective.
func TestUpdateRowRankCollapse(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	k := 4
	m := 40
	a := NewMatrix(m, k)
	for i := range a.Data {
		a.Data[i] = rng.Float64()
	}
	b := make([]float64, m)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	patched := a.Clone()
	mut := NewGramSystem(a).MutableClone(patched)
	check := func(phase string) {
		t.Helper()
		mut.RefreshInfNorm()
		cold := NewGramSystem(patched)
		if d := maxAbsDiff(mut.Gram(), cold.Gram()); d > 1e-9*(1+matInfNorm(cold.Gram())) {
			t.Fatalf("%s: maintained Gram differs from rebuild by %g", phase, d)
		}
		got, err := mut.SimplexLS(b, nil)
		if err != nil {
			t.Fatalf("%s: maintained SimplexLS: %v", phase, err)
		}
		want, err := cold.SimplexLS(b, nil)
		if err != nil {
			t.Fatalf("%s: rebuilt SimplexLS: %v", phase, err)
		}
		if og, ow := lsObjective(patched, b, got), lsObjective(patched, b, want); relDiff(og, ow) > 1e-7 {
			t.Fatalf("%s: simplex objective %g (maintained) vs %g (rebuilt)", phase, og, ow)
		}
	}
	zero := make([]float64, k)
	for i := 1; i < m; i++ {
		mut.UpdateRow(i, zero)
	}
	check("collapsed")
	for i := 1; i < m; i++ {
		row := make([]float64, k)
		for j := range row {
			row[j] = rng.Float64()
		}
		mut.UpdateRow(i, row)
	}
	check("restored")
}

func TestRecomputeColumnsMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		k := 3 + rng.Intn(5)
		m := 50 + rng.Intn(100)
		a := NewMatrix(m, k)
		for i := range a.Data {
			a.Data[i] = rng.Float64()
		}
		gs := NewGramSystem(a)
		patched := a.Clone()
		mut := gs.MutableClone(patched)
		// Rescale two whole columns in place (the column-max-moved
		// case), then ask the system to recompute them.
		cols := []int{rng.Intn(k), rng.Intn(k)}
		for _, j := range cols {
			s := 0.25 + rng.Float64()
			for i := 0; i < m; i++ {
				patched.Set(i, j, patched.At(i, j)*s)
			}
		}
		mut.RecomputeColumns(cols)
		mut.RefreshInfNorm()
		cold := NewGramSystem(patched)
		if d := maxAbsDiff(mut.Gram(), cold.Gram()); d > 1e-10*(1+matInfNorm(cold.Gram())) {
			t.Fatalf("trial %d: recomputed Gram differs from rebuild by %g", trial, d)
		}
		if mut.AInf != cold.AInf {
			t.Fatalf("trial %d: ‖A‖∞ %g != %g", trial, mut.AInf, cold.AInf)
		}
	}
}

func TestMutableCloneLeavesParentUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	a := NewMatrix(30, 4)
	for i := range a.Data {
		a.Data[i] = rng.Float64()
	}
	gs := NewGramSystem(a)
	gBefore := gs.Gram().Clone()
	ainfBefore := gs.AInf

	mut := gs.MutableClone(a.Clone())
	for u := 0; u < 10; u++ {
		row := make([]float64, 4)
		for j := range row {
			row[j] = rng.Float64() * 3
		}
		mut.UpdateRow(rng.Intn(30), row)
	}
	mut.RefreshInfNorm()

	if d := maxAbsDiff(gs.Gram(), gBefore); d != 0 {
		t.Fatalf("parent Gram mutated (max diff %g)", d)
	}
	if gs.AInf != ainfBefore {
		t.Fatalf("parent ‖A‖∞ mutated: %g != %g", gs.AInf, ainfBefore)
	}
}
