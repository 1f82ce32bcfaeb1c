package core

import (
	"math"
	"math/rand"
	"testing"

	"geoalign/internal/linalg"
	"geoalign/internal/linalg/oracle"
)

func TestNaiveRegressionExactWhenObjectiveIsAReference(t *testing.T) {
	// If the objective is exactly one reference's source vector, the
	// regression recovers β = e_k and predicts that reference's target
	// vector — the one case where it works.
	rng := rand.New(rand.NewSource(21))
	a := Reference{Name: "a", DM: randomDM(rng, 30, 6)}
	b := Reference{Name: "b", DM: randomDM(rng, 30, 6)}
	obj := a.DM.RowSums()
	got, err := NaiveRegression(obj, []Reference{a, b})
	if err != nil {
		t.Fatal(err)
	}
	want := a.DM.ColSums()
	if !vecEq(got, want, 1e-6*(1+floatMax(want))) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestNaiveRegressionDoesNotConserveMass(t *testing.T) {
	// The paper's §3.2 argument: an objective that no reference
	// combination fits has its *total* mangled by the regression, while
	// GeoAlign conserves it by construction.
	rng := rand.New(rand.NewSource(22))
	refs := []Reference{
		{DM: randomDM(rng, 40, 8)},
		{DM: randomDM(rng, 40, 8)},
	}
	// Objective concentrated on a handful of units — poorly spanned by
	// the smooth references.
	obj := make([]float64, 40)
	obj[3], obj[17], obj[31] = 500, 900, 250
	totalIn := 500.0 + 900 + 250

	reg, err := NaiveRegression(obj, refs)
	if err != nil {
		t.Fatal(err)
	}
	ga, err := Align(Problem{Objective: obj, References: refs}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sum := func(v []float64) float64 {
		var s float64
		for _, x := range v {
			s += x
		}
		return s
	}
	gaErr := math.Abs(sum(ga.Target) - totalIn)
	regErr := math.Abs(sum(reg) - totalIn)
	if gaErr > 1e-6*totalIn {
		t.Fatalf("GeoAlign broke mass conservation: %v", gaErr)
	}
	if regErr < 1e-3*totalIn {
		t.Fatalf("naive regression conserved mass (%v vs %v) — the ablation premise fails",
			sum(reg), totalIn)
	}
}

func TestNaiveRegressionValidation(t *testing.T) {
	if _, err := NaiveRegression(nil, nil); err == nil {
		t.Error("empty inputs accepted")
	}
	rng := rand.New(rand.NewSource(23))
	if _, err := NaiveRegression([]float64{1, 2}, []Reference{{DM: randomDM(rng, 3, 2)}}); err == nil {
		t.Error("shape mismatch accepted")
	}
}

// denseNaiveRegression is NaiveRegression through the dense oracle: β
// from oracle.NNLS on the full design matrix, applied to the
// references' target aggregates in the same order.
func denseNaiveRegression(t *testing.T, objective []float64, refs []Reference) (beta, out []float64) {
	t.Helper()
	cols := make([][]float64, len(refs))
	for k, r := range refs {
		cols[k] = referenceSource(r)
	}
	a, err := linalg.MatrixFromColumns(cols)
	if err != nil {
		t.Fatal(err)
	}
	beta, err = oracle.NNLS(a, objective)
	if err != nil {
		t.Fatal(err)
	}
	out = make([]float64, refs[0].DM.Cols)
	for k, r := range refs {
		if beta[k] == 0 {
			continue
		}
		for j, v := range r.DM.ColSums() {
			out[j] += beta[k] * v
		}
	}
	return beta, out
}

// TestNaiveRegressionMatchesDenseNNLS checks the Gram-form regression
// against the dense NNLS oracle on random tall problems: β to 1e-9 of
// its scale and every target to 1e-9 relative.
func TestNaiveRegressionMatchesDenseNNLS(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 30; trial++ {
		k := 2 + rng.Intn(6)
		ns := 8*k + 10 + rng.Intn(300)
		p := engineProblem(rng, ns, 3+rng.Intn(20), k)
		for i := range p.Objective {
			p.Objective[i] = rng.Float64() * 500
		}
		wantBeta, want := denseNaiveRegression(t, p.Objective, p.References)
		beta, err := naiveWeights(p.Objective, p.References)
		if err != nil {
			t.Fatal(err)
		}
		scale := 1 + linalg.MaxAbs(wantBeta)
		for j := range wantBeta {
			if math.Abs(beta[j]-wantBeta[j]) > 1e-9*scale {
				t.Fatalf("trial %d (ns=%d k=%d): β differs: gram %v dense %v", trial, ns, k, beta, wantBeta)
			}
		}
		got, err := NaiveRegression(p.Objective, p.References)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if math.Abs(got[j]-want[j]) > 1e-9*math.Abs(want[j]) {
				t.Fatalf("trial %d: target %d: gram %.17g dense %.17g", trial, j, got[j], want[j])
			}
		}
	}
}

// TestNaiveRegressionDuplicateReference feeds a reference set with one
// reference repeated, so the design matrix has two equal columns and
// every passive set holding both is singular: β must still be finite
// and non-negative, and so must the targets.
func TestNaiveRegressionDuplicateReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	p := engineProblem(rng, 200, 12, 3)
	refs := append(p.References, p.References[1])
	beta, err := naiveWeights(p.Objective, refs)
	if err != nil {
		t.Fatal(err)
	}
	if len(beta) != len(refs) {
		t.Fatalf("β has %d entries for %d references", len(beta), len(refs))
	}
	for j, v := range beta {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("β[%d] = %v: %v", j, v, beta)
		}
	}
	if beta[1]+beta[3] == 0 {
		t.Fatalf("the repeated reference carries no weight (%v): the test does not reach the equal columns", beta)
	}
	got, err := NaiveRegression(p.Objective, refs)
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range got {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("target %d = %v", j, v)
		}
	}
}
