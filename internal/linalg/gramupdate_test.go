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
	mut := gs.MutableClone()
	for u := 0; u < updates; u++ {
		i := rng.Intn(a.Rows)
		mut.UpdateRow(i, makeRow(i))
	}
	mut.RefreshInfNorm()
	return mut, designOf(mut)
}

// designOf materialises a system's design matrix as a fresh Matrix.
func designOf(gs *GramSystem) *Matrix {
	return &Matrix{Rows: gs.Rows(), Cols: gs.Cols(), Data: append([]float64(nil), gs.Design()...)}
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
	mut := NewGramSystem(a).MutableClone()
	check := func(phase string) {
		t.Helper()
		mut.RefreshInfNorm()
		patched := designOf(mut)
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
		mut := gs.MutableClone()
		// Rescale two whole columns (the column-max-moved case) and
		// hand the system the rewritten columns.
		cols := []int{rng.Intn(k), rng.Intn(k)}
		for _, j := range cols {
			s := 0.25 + rng.Float64()
			for i := 0; i < m; i++ {
				patched.Set(i, j, patched.At(i, j)*s)
			}
		}
		vals := make([][]float64, len(cols))
		for t, j := range cols {
			vals[t] = make([]float64, m)
			for i := range vals[t] {
				vals[t][i] = patched.At(i, j)
			}
		}
		mut.RecomputeColumns(cols, vals)
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

	aBefore := a.Clone()
	mut := gs.MutableClone()
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
	if d := maxAbsDiff(a, aBefore); d != 0 {
		t.Fatalf("parent design matrix mutated (max diff %g)", d)
	}
}

// TestInfNormKeptAcrossBlocks drives a design matrix of more than three
// row blocks through a randomized chain of generations — each a
// MutableClone of the last, patched by UpdateRow and now and then
// RecomputeColumns — and checks after every batch that AInf equals
// matInfNorm of the materialised matrix bit for bit. Entries on a
// coarse grid make row sums tie exactly, and the edits aim at the
// maximum: a row holding it shrinks, another row ties it, a row grows
// past it. An all-zero phase checks the convention that such a matrix
// reports 1, on a clone and on a restored system. Every earlier
// generation must keep its design matrix and ‖A‖∞, so a write into a
// block a clone shares fails here too.
func TestInfNormKeptAcrossBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	const m, k = 3*GramBlockRows + 311, 4
	a := NewMatrix(m, k)
	for i := range a.Data {
		a.Data[i] = float64(rng.Intn(8)) / 8
	}
	gridRow := func() []float64 {
		row := make([]float64, k)
		for j := range row {
			row[j] = float64(rng.Intn(8)) / 8
		}
		return row
	}
	// maxRows lists the rows of d whose abs-sum attains ‖d‖∞.
	maxRows := func(d *Matrix) []int {
		mx := matInfNorm(d)
		var rows []int
		for i := 0; i < d.Rows; i++ {
			if absSum(d.Row(i)) == mx {
				rows = append(rows, i)
			}
		}
		return rows
	}
	type generation struct {
		gs     *GramSystem
		design []float64
		ainf   float64
	}
	checkKept := func(step int, gs *GramSystem) *Matrix {
		t.Helper()
		d := designOf(gs)
		if want := matInfNorm(d); math.Float64bits(gs.AInf) != math.Float64bits(want) {
			t.Fatalf("step %d: maintained ‖A‖∞ %v, matInfNorm %v", step, gs.AInf, want)
		}
		return d
	}
	gens := []generation{{NewGramSystem(a), append([]float64(nil), a.Data...), matInfNorm(a)}}
	for step := 0; step < 60; step++ {
		prev := gens[len(gens)-1]
		mut := prev.gs.MutableClone()
		cur := designOf(mut)
		for u := 1 + rng.Intn(4); u > 0; u-- {
			i, row := rng.Intn(m), gridRow()
			switch rng.Intn(6) {
			case 0: // a row holding the maximum shrinks
				held := maxRows(cur)
				i = held[rng.Intn(len(held))]
				row = append([]float64(nil), cur.Row(i)...)
				row[rng.Intn(k)] = 0
			case 1: // another row ties the maximum
				row = append([]float64(nil), cur.Row(maxRows(cur)[0])...)
			case 2: // a row grows past the maximum
				row[0] = matInfNorm(cur)
			case 3:
				row = make([]float64, k)
			}
			mut.UpdateRow(i, row)
			copy(cur.Row(i), row)
		}
		if step%10 == 9 {
			j := rng.Intn(k)
			col := make([]float64, m)
			for i := range col {
				col[i] = float64(rng.Intn(8)) / 8
				cur.Set(i, j, col[i])
			}
			mut.RecomputeColumns([]int{j}, [][]float64{col})
		}
		mut.RefreshInfNorm()
		got := checkKept(step, mut)
		if d := maxAbsDiff(got, cur); d != 0 {
			t.Fatalf("step %d: maintained design differs from the patched one by %g", step, d)
		}
		gens = append(gens, generation{mut, got.Data, mut.AInf})
		for g, gen := range gens {
			d := gen.gs.Design()
			for i, v := range gen.design {
				if math.Float64bits(d[i]) != math.Float64bits(v) {
					t.Fatalf("step %d: generation %d design entry %d changed", step, g, i)
				}
			}
			if gen.gs.AInf != gen.ainf {
				t.Fatalf("step %d: generation %d ‖A‖∞ changed", step, g)
			}
		}
	}

	// All-zero matrix: ‖A‖∞ reports 1, and the first nonzero row sets
	// it exactly, whether the zeros came from a column rewrite or from
	// a restored system whose AInf of 1 hides them.
	mut := gens[len(gens)-1].gs.MutableClone()
	cols, zeros := make([]int, k), make([][]float64, k)
	for j := range cols {
		cols[j], zeros[j] = j, make([]float64, m)
	}
	mut.RecomputeColumns(cols, zeros)
	mut.RefreshInfNorm()
	checkKept(-1, mut)
	if mut.AInf != 1 {
		t.Fatalf("all-zero matrix: ‖A‖∞ %v, want 1", mut.AInf)
	}
	small := []float64{0.125, 0, 0.25, 0}
	for _, gs := range []*GramSystem{mut, RestoreGramSystem(NewMatrix(m, k), NewMatrix(k, k), 1)} {
		next := gs.MutableClone()
		next.UpdateRow(GramBlockRows+5, small)
		next.RefreshInfNorm()
		checkKept(-2, next)
		if next.AInf != 0.375 {
			t.Fatalf("one row on an all-zero matrix: ‖A‖∞ %v, want 0.375", next.AInf)
		}
	}
}
