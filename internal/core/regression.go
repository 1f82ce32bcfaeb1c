package core

import (
	"geoalign/internal/linalg"
)

// NaiveRegression implements the approach §3.2 of the paper dismisses:
// model the objective's source aggregates as a non-negative linear
// combination of the references' source aggregates, then predict the
// target aggregates by applying the same coefficients to the
// references' target aggregates.
//
// The paper's objection is structural: the training rows (source units)
// and prediction rows (target units) are not samples from one
// population — they are different partitions of the same mass — so the
// regression has no reason to transfer, and nothing constrains the
// predictions to preserve the objective's total. This implementation
// exists to demonstrate that argument empirically (see the ablation in
// internal/eval and EXPERIMENTS.md): unlike GeoAlign it is not
// volume-preserving, and its error grows with how far the fitted
// combination's total drifts from the objective's.
func NaiveRegression(objective []float64, refs []Reference) ([]float64, error) {
	_, nt, err := validate(Problem{Objective: objective, References: refs})
	if err != nil {
		return nil, err
	}
	beta, err := naiveWeights(objective, refs)
	if err != nil {
		return nil, err
	}
	out := make([]float64, nt)
	for k, r := range refs {
		if beta[k] == 0 {
			continue
		}
		tcol := r.DM.ColSums()
		for j := 0; j < nt; j++ {
			out[j] += beta[k] * tcol[j]
		}
	}
	return out, nil
}

// naiveWeights fits the regression's coefficients: the non-negative
// least-squares β minimising ‖A·β − objective‖₂, where column k of A is
// reference k's source aggregates. It solves through the normal
// equations (Lawson–Hanson in Gram space) with the dense solver's dual
// tolerance 10·ε·k·‖A‖∞·(‖objective‖₂+1).
func naiveWeights(objective []float64, refs []Reference) ([]float64, error) {
	cols := make([][]float64, len(refs))
	for k, r := range refs {
		cols[k] = referenceSource(r)
	}
	a, err := linalg.MatrixFromColumns(cols)
	if err != nil {
		return nil, err
	}
	gs := linalg.NewGramSystem(a)
	c := make([]float64, len(refs))
	gs.ApplyTInto(c, objective)
	tol := linalg.GramTolerance(gs.AInf, linalg.Norm2(objective), len(refs))
	return linalg.NNLSGramWarm(gs.Gram(), c, tol, nil)
}
